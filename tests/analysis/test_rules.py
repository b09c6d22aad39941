"""Good/bad fixtures per rule: each invariant catches its seeded
violation and stays quiet on the idiomatic spelling."""

from __future__ import annotations

import pytest

from repro.analysis.rules.api_surface import ApiSurfaceRule
from repro.analysis.rules.concurrency import ConcurrencyBoundaryRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.metrics import MetricsHygieneRule
from repro.analysis.rules.taxonomy import TaxonomyRule


def only_rule(findings, rule_id):
    assert all(f.rule_id == rule_id for f in findings), findings
    return findings


class TestDeterminismRL001:
    def rule(self):
        return DeterminismRule()

    def test_wall_clock_flagged_in_hot_path(self, lint_tree):
        findings, _, _ = lint_tree(
            {"core/block.py": """
            import time

            def stamp():
                return time.perf_counter()
            """},
            [self.rule()],
        )
        assert len(only_rule(findings, "RL001")) == 1

    def test_same_code_outside_hot_path_is_fine(self, lint_tree):
        findings, _, _ = lint_tree(
            {"eval/timers.py": """
            import time

            def stamp():
                return time.perf_counter()
            """},
            [self.rule()],
        )
        assert findings == []

    def test_unseeded_numpy_rng_flagged_seeded_allowed(self, lint_tree):
        findings, _, _ = lint_tree(
            {"hashing/mix.py": """
            import numpy as np

            def bad():
                return np.random.permutation(8)

            def good(seed):
                return np.random.default_rng(seed).permutation(8)
            """},
            [self.rule()],
        )
        assert len(only_rule(findings, "RL001")) == 1
        assert "permutation" in findings[0].message

    def test_seeded_random_Random_allowed_ambient_random_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            {"sketches/pick.py": """
            import random

            def good(seed):
                return random.Random(seed)

            def bad():
                return random.random()
            """},
            [self.rule()],
        )
        assert len(only_rule(findings, "RL001")) == 1

    def test_float_equality_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            {"serve/kernels.py": """
            def bad(x):
                return x == 0.5

            def good(x):
                return abs(x - 0.5) < 1e-9
            """},
            [self.rule()],
        )
        assert len(only_rule(findings, "RL001")) == 1

    def test_set_iteration_into_return_flagged_sorted_allowed(self, lint_tree):
        findings, _, _ = lint_tree(
            {"serve/packed.py": """
            def bad(items):
                pool = set(items)
                return [x + 1 for x in pool]

            def good(items):
                pool = set(items)
                return [x + 1 for x in sorted(pool)]
            """},
            [self.rule()],
        )
        assert len(only_rule(findings, "RL001")) == 1

    def test_loop_feeding_returned_container_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            {"sketches/fold.py": """
            def bad(items):
                out = []
                for x in set(items):
                    out.append(x)
                return out
            """},
            [self.rule()],
        )
        assert len(only_rule(findings, "RL001")) == 1


class TestTaxonomyRL002:
    def rule(self):
        return TaxonomyRule(reasons=("alpha", "beta"))

    def test_bare_builtin_raise_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            {"mod.py": """
            def f():
                raise ValueError("nope")
            """},
            [self.rule()],
        )
        assert len(only_rule(findings, "RL002")) == 1

    def test_taxonomy_and_local_raises_allowed(self, lint_tree):
        findings, _, _ = lint_tree(
            {"mod.py": """
            from repro.errors import ConfigurationError

            class LocalProblem(Exception):
                pass

            def f(flag):
                if flag:
                    raise ConfigurationError("bad flag")
                raise LocalProblem

            def todo():
                raise NotImplementedError
            """},
            [self.rule()],
        )
        assert findings == []

    def test_examples_exempt_from_raise_check(self, lint_tree):
        findings, _, _ = lint_tree(
            {"examples/demo.py": """
            def f():
                raise ValueError("scripts may be casual")
            """},
            [self.rule()],
        )
        assert findings == []

    def test_unregistered_reason_literal_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            {"mod.py": """
            def f(judge):
                judge.ContractViolation("alpha", "fine")
                judge.ContractViolation("gamma", "drifted")
                judge.DeadLetter(0, "delta", "raw", "drifted")
            """},
            [self.rule()],
        )
        assert [f.message for f in only_rule(findings, "RL002")] == [
            "dead-letter reason 'gamma' passed to ContractViolation is not in "
            "the closed REASONS vocabulary (register it in "
            "repro.stream.deadletter.REASONS and docs/CASEBOOK.md first)",
            "dead-letter reason 'delta' passed to DeadLetter is not in the "
            "closed REASONS vocabulary (register it in "
            "repro.stream.deadletter.REASONS and docs/CASEBOOK.md first)",
        ]

    def test_reason_keyword_checked(self, lint_tree):
        findings, _, _ = lint_tree(
            {"mod.py": """
            from repro.errors import DeadLetterError

            def f():
                raise DeadLetterError("x", reason="gamma", offset=3)
            """},
            [self.rule()],
        )
        assert len(only_rule(findings, "RL002")) == 1

    def test_policies_dict_keys_checked(self, lint_tree):
        findings, _, _ = lint_tree(
            {"mod.py": """
            DEFAULT_POLICIES = {"alpha": 1, "gamma": 2}
            """},
            [self.rule()],
        )
        assert len(only_rule(findings, "RL002")) == 1
        assert "'gamma'" in findings[0].message

    def test_attribute_error_allowed_inside_getattr_only(self, lint_tree):
        # PEP 562 and the data model make AttributeError the signal for
        # a missing name; anywhere else it is still a bare raise.
        findings, _, _ = lint_tree(
            {"mod.py": """
            def __getattr__(name):
                raise AttributeError(name)

            def lazy():
                def __getattr__(name):
                    raise AttributeError(name)
                return __getattr__

            class Proxy:
                def __getattr__(self, name):
                    raise AttributeError(name)

            def lookup(name):
                raise AttributeError(name)
            """},
            [self.rule()],
        )
        assert [f.line for f in only_rule(findings, "RL002")] == [15]  # lookup()

    def test_live_vocabulary_is_the_default(self):
        # The rule imports REASONS, not a copy: a reason used at a call
        # site without being registered fails lint (taxonomy drift).
        from repro.stream.deadletter import REASONS

        assert TaxonomyRule().reasons == frozenset(REASONS)


class TestMetricsRL003:
    def rule(self):
        return MetricsHygieneRule()

    def test_bad_instrument_name_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            {"mod.py": """
            def wire(metrics):
                metrics.counter("HTTPRequests", "bad case")
                metrics.counter("http_requests_total", "fine")
            """},
            [self.rule()],
        )
        assert len(only_rule(findings, "RL003")) == 1
        assert "HTTPRequests" in findings[0].message

    def test_kind_conflict_across_files_flagged_at_second_site(self, lint_tree):
        findings, _, _ = lint_tree(
            {
                "a.py": 'def wire(m):\n    m.counter("swap_total", "x")\n',
                "b.py": 'def wire(m):\n    m.histogram("swap_total", "x")\n',
            },
            [self.rule()],
        )
        assert len(only_rule(findings, "RL003")) == 1
        assert findings[0].file.endswith("b.py")
        assert "one name, one kind" in findings[0].message

    def test_same_kind_re_registration_is_fine(self, lint_tree):
        findings, _, _ = lint_tree(
            {
                "a.py": 'def wire(m):\n    m.counter("swap_total", "x")\n',
                "b.py": 'def wire(m):\n    m.counter("swap_total", "x")\n',
            },
            [self.rule()],
        )
        assert findings == []

    def test_computed_label_set_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            {"mod.py": """
            def wire(m, labels):
                m.counter("requests_total", "x", labels)
                m.counter("responses_total", "x", ("code", "route"))
            """},
            [self.rule()],
        )
        assert len(only_rule(findings, "RL003")) == 1
        assert "literal tuple" in findings[0].message

    def test_uppercase_label_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            {"mod.py": """
            def wire(m):
                m.gauge("queue_depth", "x", labelnames=("Shard",))
            """},
            [self.rule()],
        )
        assert len(only_rule(findings, "RL003")) == 1


class TestConcurrencyRL004:
    def rule(self):
        return ConcurrencyBoundaryRule()

    BOUNDARY_MODULE = """
    import threading


    class Worker(threading.Thread):
        def __init__(self, server):
            super().__init__()
            self.server = server

        def run(self):
            self.server.publish()


    class Server:
        def publish(self):
            self.{attr} = object()
            {extra}

        async def start(self):
            self.publish()
    """

    def module(self, attr="_generation", extra="pass", header=""):
        import textwrap

        body = textwrap.dedent(self.BOUNDARY_MODULE.format(attr=attr, extra=extra))
        return header + body

    def test_cross_boundary_write_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            {"serve/server.py": self.module(attr="_count")},
            [self.rule()],
        )
        assert len(only_rule(findings, "RL004")) == 1
        assert "_count" in findings[0].message

    def test_declared_publication_attr_allowed(self, lint_tree):
        findings, _, _ = lint_tree(
            {
                "serve/server.py": self.module(
                    header='_PUBLICATION_ATTRS = frozenset({"_generation"})\n',
                )
            },
            [self.rule()],
        )
        assert findings == []

    def test_publication_attr_augassign_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            {
                "serve/server.py": self.module(
                    header='_PUBLICATION_ATTRS = frozenset({"_generation"})\n',
                    extra="self._generation += 1",
                )
            },
            [self.rule()],
        )
        assert len(only_rule(findings, "RL004")) == 1
        assert "read-modify-write" in findings[0].message

    def test_thread_only_module_not_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            {"serve/pool.py": """
            import threading


            class Worker(threading.Thread):
                def run(self):
                    self.count = 1
            """},
            [self.rule()],
        )
        assert findings == []

    def test_thread_side_does_not_descend_into_coroutines(self, lint_tree):
        # A thread that *references* a coroutine function doesn't run
        # its body; the async write alone must not create a thread-side
        # write.
        findings, _, _ = lint_tree(
            {"serve/mixed.py": """
            import asyncio
            import threading


            class Runner(threading.Thread):
                def run(self):
                    asyncio.run(self.main())

                async def main(self):
                    self.result = 1
            """},
            [self.rule()],
        )
        assert findings == []

    def test_thread_target_entry_point(self, lint_tree):
        findings, _, _ = lint_tree(
            {"serve/targets.py": """
            import threading


            class Server:
                def _pump(self):
                    self.offset = 1

                def start(self):
                    self.thread = threading.Thread(target=self._pump)
                    self.thread.start()

                async def stop(self):
                    self.offset = 0
            """},
            [self.rule()],
        )
        assert len(only_rule(findings, "RL004")) == 1
        assert "offset" in findings[0].message


class TestApiSurfaceRL005:
    def rule(self, facade=("SketchConfig", "ingest")):
        return ApiSurfaceRule(facade_names=facade)

    def test_public_def_missing_from_all_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            {"api.py": """
            __all__ = ["ingest"]


            def ingest(source):
                return source


            def evaluate(source):
                return source
            """},
            [self.rule()],
        )
        assert len(only_rule(findings, "RL005")) == 1
        assert "'evaluate'" in findings[0].message

    def test_stale_all_entry_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            {"api.py": """
            __all__ = ["ingest", "vanished"]


            def ingest(source):
                return source
            """},
            [self.rule()],
        )
        messages = " ".join(f.message for f in only_rule(findings, "RL005"))
        assert "'vanished'" in messages

    def test_exact_surface_passes(self, lint_tree):
        findings, _, _ = lint_tree(
            {"api.py": """
            __all__ = ["IngestReport", "ingest"]

            from dataclasses import dataclass


            @dataclass
            class IngestReport:
                records: int


            def ingest(source):
                return IngestReport(0)
            """},
            [self.rule()],
        )
        assert findings == []

    def test_example_importing_facade_name_deeply_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            {"examples/demo.py": """
            from repro import ingest
            from repro.core import SketchConfig
            from repro.eval.reporting import format_table
            """},
            [self.rule()],
        )
        assert len(only_rule(findings, "RL005")) == 1
        assert "SketchConfig" in findings[0].message

    def test_example_importing_private_name_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            {"examples/demo.py": "from repro.serve.server import _ScoreBatcher\n"},
            [self.rule()],
        )
        assert len(only_rule(findings, "RL005")) == 1

    def test_docstring_snippet_deep_import_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            {"core/predictor.py": '''
            """The predictor.

            >>> from repro.core import SketchConfig
            >>> SketchConfig(k=4)
            """
            '''},
            [self.rule()],
        )
        assert len(only_rule(findings, "RL005")) == 1
        assert "from repro import SketchConfig" in findings[0].message

    def test_docstring_snippet_facade_import_passes(self, lint_tree):
        findings, _, _ = lint_tree(
            {"core/predictor.py": '''
            """The predictor.

            >>> from repro import SketchConfig
            >>> from repro.graph import from_pairs
            """
            '''},
            [self.rule()],
        )
        assert findings == []

    LAZY_PACKAGE = {
        "pkg/mod.py": """
        thing = 1


        def helper():
            return thing
        """,
    }

    def lazy_init(self, table: str, exported: str = '["thing", "helper"]') -> dict:
        files = dict(self.LAZY_PACKAGE)
        files["pkg/__init__.py"] = f"""
        from repro._lazy import lazy_exports

        __getattr__, __dir__ = lazy_exports(__name__, {table})

        __all__ = {exported}
        """
        return files

    def test_lazy_table_entries_count_as_bound(self, lint_tree):
        findings, _, _ = lint_tree(
            self.lazy_init('{"pkg.mod": ["thing", "helper"]}'), [self.rule()]
        )
        assert findings == []

    def test_lazy_entry_its_module_does_not_bind_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            self.lazy_init('{"pkg.mod": ["thing", "helpr"]}', '["thing", "helpr"]'),
            [self.rule()],
        )
        assert [f.message for f in only_rule(findings, "RL005")] == [
            "lazy export 'helpr': pkg.mod does not bind it at module top level"
        ]

    def test_lazy_entry_naming_a_missing_module_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            self.lazy_init('{"pkg.mod": ["thing"], "pkg.gone": ["helper"]}'),
            [self.rule()],
        )
        assert [f.message for f in only_rule(findings, "RL005")] == [
            "lazy export 'helper': module 'pkg.gone' has no source file beside "
            "this package"
        ]

    def test_all_entry_outside_the_lazy_table_still_flagged(self, lint_tree):
        findings, _, _ = lint_tree(
            self.lazy_init('{"pkg.mod": ["thing"]}'), [self.rule()]
        )
        messages = [f.message for f in only_rule(findings, "RL005")]
        assert messages == [
            "__all__ entry 'helper' is not bound at module top level (stale export?)"
        ]

    @pytest.mark.parametrize(
        "table", ["dict(TABLE)", '{"pkg.mod": NAMES}', '{MODULE: ["thing"]}']
    )
    def test_non_literal_lazy_table_flagged(self, lint_tree, table):
        findings, _, _ = lint_tree(self.lazy_init(table, "[]"), [self.rule()])
        assert [f.message for f in only_rule(findings, "RL005")] == [
            "lazy_exports() needs a literal {module: [names]} dict as its "
            "second argument"
        ]

    def test_default_facade_names_come_from_the_live_package(self):
        import repro
        import repro.api

        names = ApiSurfaceRule().facade_names
        assert names == frozenset(repro.__all__) | frozenset(repro.api.__all__)
