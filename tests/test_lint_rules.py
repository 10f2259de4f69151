"""Per-rule lint corpus: each rule fires on a known-bad fixture and
stays silent once the allowlist pragma is added."""

import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.lint import lint_source, parse_pragmas  # noqa: E402
from tools.lint.engine import lint_contexts, parse_context  # noqa: E402
from tools.lint.rules_project import PROJECT_RULES_BY_ID  # noqa: E402


def violations(code, path="src/repro/example.py"):
    return lint_source(textwrap.dedent(code), path=path)


def rule_ids(code, path="src/repro/example.py"):
    return [v.rule for v in violations(code, path)]


def project_violations(files, *active):
    """Run the selected whole-program rules over a synthetic corpus."""
    contexts = []
    for path, code in files.items():
        ctx, errors = parse_context(textwrap.dedent(code), path)
        assert ctx is not None, errors
        contexts.append(ctx)
    rules = [PROJECT_RULES_BY_ID[rule_id] for rule_id in active]
    return lint_contexts(contexts, rules=(), project_rules=rules)


class TestR1UnitSuffixes:
    def test_banned_suffix_on_assignment_fires(self):
        assert rule_ids("latency_ms = 5\n") == ["R1"]

    def test_banned_suffix_on_parameter_fires(self):
        assert rule_ids("def f(delay_sec):\n    return delay_sec\n") == ["R1"]

    def test_banned_suffix_on_attribute_fires(self):
        code = """
        class C:
            def __init__(self):
                self.total_seconds = 0
        """
        assert rule_ids(code) == ["R1"]

    def test_mixed_unit_addition_fires(self):
        assert rule_ids("total = page_ns + flush_us\n") == ["R1"]

    def test_mixed_unit_comparison_fires(self):
        assert rule_ids("flag = read_ns < limit_cycles\n") == ["R1"]

    def test_conversion_via_multiplication_is_allowed(self):
        assert rule_ids("total_ns = delay_us * 1000\n") == []

    def test_same_unit_arithmetic_is_allowed(self):
        assert rule_ids("total_ns = read_ns + flush_ns\n") == []

    def test_approved_suffixes_are_allowed(self):
        assert rule_ids("a_ns = 1\nb_us = 2\nc_cycles = 3\nd_hz = 4\n") == []

    def test_pragma_silences(self):
        assert rule_ids("latency_ms = 5  # lint: ok[R1]\n") == []


class TestR2FloatTimeEquality:
    def test_equality_on_now_fires(self):
        assert rule_ids("ok = sim.now == finish\n") == ["R2"]

    def test_inequality_on_ns_name_fires(self):
        assert rule_ids("ok = total_ns != expected\n") == ["R2"]

    def test_integer_literal_is_allowed(self):
        assert rule_ids("ok = sim.now == 10\n") == []

    def test_pytest_approx_is_allowed(self):
        assert rule_ids("ok = total_ns == pytest.approx(expected)\n") == []

    def test_ordering_comparison_is_allowed(self):
        assert rule_ids("ok = sim.now < deadline\n") == []

    def test_pragma_silences(self):
        assert rule_ids("ok = sim.now == finish  # lint: ok[R2]\n") == []


class TestR3KernelEncapsulation:
    def test_heapq_import_fires(self):
        assert rule_ids("import heapq\n") == ["R3"]

    def test_heapq_from_import_fires(self):
        assert rule_ids("from heapq import heappush\n") == ["R3"]

    def test_succeed_call_fires(self):
        assert rule_ids("event.succeed(42)\n") == ["R3"]

    def test_kernel_module_is_exempt(self):
        path = "src/repro/sim/engine.py"
        assert rule_ids("import heapq\nevent.succeed(1)\n", path=path) == []

    def test_pragma_silences(self):
        assert rule_ids("event.succeed(42)  # lint: ok[R3]\n") == []

    def test_file_pragma_silences_whole_file(self):
        code = "# lint: ok-file[R3]\nimport heapq\nevent.succeed(1)\n"
        assert rule_ids(code) == []


class TestR4FrozenConfigs:
    def test_setattr_outside_init_hooks_fires(self):
        code = """
        def tweak(config):
            object.__setattr__(config, "page_size", 8192)
        """
        assert rule_ids(code) == ["R4"]

    def test_setattr_in_post_init_is_allowed(self):
        code = """
        class C:
            def __post_init__(self):
                object.__setattr__(self, "derived", 1)
        """
        assert rule_ids(code) == []

    def test_pragma_silences(self):
        code = 'object.__setattr__(c, "x", 1)  # lint: ok[R4]\n'
        assert rule_ids(code) == []


class TestR5FTLEncapsulation:
    def test_l2p_table_access_fires(self):
        assert rule_ids("pages = ftl.mapping._table\n") == ["R5"]

    def test_next_free_access_fires(self):
        assert rule_ids("ftl._next_free = 0\n") == ["R5"]

    def test_ftl_module_is_exempt(self):
        path = "src/repro/ssd/ftl.py"
        assert rule_ids("self._table[lba] = physical\n", path=path) == []

    def test_pragma_silences(self):
        assert rule_ids("pages = ftl.mapping._table  # lint: ok[R5]\n") == []


class TestR6BenchmarkReporting:
    def test_print_in_benchmark_fires(self):
        assert rule_ids("print('x')\n", path="benchmarks/bench_x.py") == ["R6"]

    def test_print_outside_benchmarks_is_allowed(self):
        assert rule_ids("print('x')\n", path="examples/demo.py") == []

    def test_table_print_method_is_allowed(self):
        assert rule_ids("table.print()\n", path="benchmarks/bench_x.py") == []

    def test_emit_is_allowed(self):
        assert rule_ids("emit(chart)\n", path="benchmarks/bench_x.py") == []

    def test_pragma_silences(self):
        code = "print('x')  # lint: ok[R6]\n"
        assert rule_ids(code, path="benchmarks/bench_x.py") == []


class TestR7WallClock:
    def test_time_import_in_core_fires(self):
        assert rule_ids("import time\n", path="src/repro/core/x.py") == ["R7"]

    def test_datetime_from_import_fires(self):
        code = "from datetime import datetime\n"
        assert rule_ids(code, path="src/repro/ssd/x.py") == ["R7"]

    def test_wall_clock_call_fires(self):
        assert rule_ids("t = time.time()\n", path="src/repro/sim/x.py") == ["R7"]

    def test_monotonic_call_fires_in_obs(self):
        code = "t0 = time.monotonic_ns()\n"
        assert rule_ids(code, path="src/repro/obs/x.py") == ["R7"]

    def test_datetime_now_fires(self):
        code = "stamp = datetime.now()\n"
        assert rule_ids(code, path="src/repro/core/x.py") == ["R7"]

    def test_outside_sim_packages_is_allowed(self):
        assert rule_ids("import time\n", path="src/repro/analysis/x.py") == []
        assert rule_ids("import time\n", path="benchmarks/bench_x.py") == []

    def test_simulated_time_attributes_are_allowed(self):
        code = "elapsed_ns = sim.now - start_ns\n"
        assert rule_ids(code, path="src/repro/core/x.py") == []

    def test_unrelated_now_attribute_is_allowed(self):
        # Only the wall-clock modules' namespaces are banned; sim.now
        # and arbitrary .now attributes on other objects are the point.
        code = "t = clock.now()\n"
        assert rule_ids(code, path="src/repro/core/x.py") == []

    def test_pragma_silences(self):
        code = "import time  # lint: ok[R7]\n"
        assert rule_ids(code, path="src/repro/core/x.py") == []


class TestR8NamedResources:
    def test_anonymous_server_fires(self):
        assert rule_ids("bus = Server(sim)\n") == ["R8"]

    def test_anonymous_resource_fires(self):
        assert rule_ids("die = Resource(sim, capacity=1)\n") == ["R8"]

    def test_name_keyword_is_allowed(self):
        code = "bus = Server(sim, name='channel0-bus')\n"
        assert rule_ids(code) == []

    def test_positional_name_is_allowed(self):
        assert rule_ids("mux = Server(sim, 'ftl-mux')\n") == []
        assert rule_ids("die = Resource(sim, 1, 'die0')\n") == []

    def test_kernel_module_is_exempt(self):
        # repro.sim defines the primitives; its internal/test helpers
        # may build anonymous instances.
        path = "src/repro/sim/resources.py"
        assert rule_ids("r = Resource(sim)\n", path=path) == []

    def test_outside_repro_is_exempt(self):
        assert rule_ids("r = Resource(sim)\n", path="tests/test_x.py") == []

    def test_double_star_kwargs_gets_benefit_of_doubt(self):
        assert rule_ids("r = Resource(sim, **options)\n") == []

    def test_unrelated_calls_are_ignored(self):
        assert rule_ids("x = Server_factory(sim)\ny = make(sim)\n") == []

    def test_pragma_silences(self):
        assert rule_ids("bus = Server(sim)  # lint: ok[R8]\n") == []


class TestR10UnitFlow:
    def test_cross_file_ns_return_bound_to_cycles_name_fires(self):
        out = project_violations(
            {
                "src/repro/ssd/timing.py": """
                    class SSDTimingModel:
                        def vector_transfer_ns(self, size):
                            return size * 2.0
                """,
                "src/repro/core/sched.py": """
                    def plan(timing):
                        wait_cycles = timing.vector_transfer_ns(64)
                        return wait_cycles
                """,
            },
            "R10",
        )
        assert [v.rule for v in out] == ["R10"]
        assert "wait_cycles" in out[0].message
        assert "_ns" in out[0].message

    def test_matching_suffix_assignment_is_clean(self):
        out = project_violations(
            {
                "src/repro/ssd/timing.py": """
                    def vector_transfer_ns(size):
                        return size * 2.0
                """,
                "src/repro/core/sched.py": """
                    def plan():
                        wait_ns = vector_transfer_ns(64)
                        return wait_ns
                """,
            },
            "R10",
        )
        assert out == []

    def test_declared_suffix_contradicting_returns_fires(self):
        out = project_violations(
            {
                "src/repro/core/t.py": """
                    def read_ns():
                        return 5.0

                    def total_cycles():
                        return read_ns() + read_ns()
                """,
            },
            "R10",
        )
        assert [v.rule for v in out] == ["R10"]
        assert "total_cycles" in out[0].message

    def test_explicit_conversion_through_multiplication_is_clean(self):
        # * / are the sanctioned conversion operators (same rule as R1):
        # a scaled expression no longer carries the source unit.
        out = project_violations(
            {
                "src/repro/core/t.py": """
                    def read_ns():
                        return 5.0

                    def plan(clock_hz):
                        wait_cycles = read_ns() * clock_hz / 1e9
                        return wait_cycles
                """,
            },
            "R10",
        )
        assert out == []


class TestR11DeterminismHazards:
    def test_set_iteration_scheduling_fires(self):
        out = project_violations(
            {
                "src/repro/sim/kick.py": """
                    def kick(sim, events):
                        for event in set(events):
                            sim.process(event)
                """,
            },
            "R11",
        )
        assert [v.rule for v in out] == ["R11"]
        assert "set" in out[0].message

    def test_sorted_wrapper_is_clean(self):
        out = project_violations(
            {
                "src/repro/sim/kick.py": """
                    def kick(sim, events):
                        for event in sorted(set(events)):
                            sim.process(event)
                """,
            },
            "R11",
        )
        assert out == []

    def test_set_iteration_without_hazard_is_clean(self):
        out = project_violations(
            {
                "src/repro/sim/kick.py": """
                    def count(events):
                        total = 0
                        for event in set(events):
                            total = total + 1
                        return total
                """,
            },
            "R11",
        )
        assert out == []

    def test_unsorted_rglob_append_fires(self):
        out = project_violations(
            {
                "src/repro/obs/export.py": """
                    def collect(root, records):
                        for path in root.rglob("*.json"):
                            records.append(path)
                """,
            },
            "R11",
        )
        assert [v.rule for v in out] == ["R11"]

    def test_outside_simulation_packages_is_exempt(self):
        out = project_violations(
            {
                "src/repro/analysis/free.py": """
                    def kick(sim, events):
                        for event in set(events):
                            sim.process(event)
                """,
            },
            "R11",
        )
        assert out == []


class TestR12NameRegistry:
    CATALOGUE = """
        SPAN_LOOKUP = "lookup"
    """

    def test_hardcoded_span_name_fires(self):
        out = project_violations(
            {
                "src/repro/obs/names.py": self.CATALOGUE,
                "src/repro/core/emit.py": """
                    from repro.obs import names

                    def emit(tracer):
                        tracer.add_span(names.SPAN_LOOKUP, 0.0, 1.0)
                        tracer.add_span("inline", 0.0, 1.0)
                """,
            },
            "R12",
        )
        assert [v.rule for v in out] == ["R12"]
        assert "'inline'" in out[0].message
        assert "repro/obs/names.py" in out[0].message

    def test_catalogue_reference_is_clean(self):
        out = project_violations(
            {
                "src/repro/obs/names.py": self.CATALOGUE,
                "src/repro/core/emit.py": """
                    from repro.obs import names

                    def emit(tracer):
                        tracer.add_span(names.SPAN_LOOKUP, 0.0, 1.0)
                """,
            },
            "R12",
        )
        assert out == []

    def test_foreign_module_constant_fires(self):
        out = project_violations(
            {
                "src/repro/obs/names.py": self.CATALOGUE,
                "src/repro/core/emit.py": """
                    from repro.obs import names

                    LOCAL_NAME = "local"

                    def emit(tracer):
                        tracer.add_span(names.SPAN_LOOKUP, 0.0, 1.0)
                        tracer.add_span(LOCAL_NAME, 0.0, 1.0)
                """,
            },
            "R12",
        )
        assert [v.rule for v in out] == ["R12"]
        assert "repro.core.emit" in out[0].message

    def test_dynamic_name_is_allowed(self):
        out = project_violations(
            {
                "src/repro/obs/names.py": self.CATALOGUE,
                "src/repro/core/emit.py": """
                    from repro.obs import names

                    def emit(tracer, channel):
                        tracer.add_span(names.SPAN_LOOKUP, 0.0, 1.0)
                        tracer.add_span(channel.name, 0.0, 1.0)
                """,
            },
            "R12",
        )
        assert out == []

    def test_orphan_catalogue_entry_fires(self):
        out = project_violations(
            {
                "src/repro/obs/names.py": """
                    SPAN_LOOKUP = "lookup"
                    SPAN_ORPHAN = "orphan"
                """,
                "src/repro/core/emit.py": """
                    from repro.obs import names

                    def emit(tracer):
                        tracer.add_span(names.SPAN_LOOKUP, 0.0, 1.0)
                """,
            },
            "R12",
        )
        assert [v.rule for v in out] == ["R12"]
        assert "SPAN_ORPHAN" in out[0].message
        assert out[0].path == "src/repro/obs/names.py"


class TestEngineMechanics:
    def test_syntax_error_reported_not_raised(self):
        out = violations("def broken(:\n")
        assert [v.rule for v in out] == ["E0"]

    def test_pragma_parsing_line_and_file_scope(self):
        per_line, per_file = parse_pragmas(
            "x = 1  # lint: ok[R1,R2]\n# lint: ok-file[R6]\n"
        )
        assert per_line == {1: {"R1", "R2"}}
        assert per_file == {"R6"}

    def test_star_pragma_silences_everything(self):
        assert rule_ids("import heapq  # lint: ok[*]\n") == []

    def test_multiline_statement_pragma_on_any_spanned_line(self):
        code = "total = (\n    page_ns + flush_us  # lint: ok[R1]\n)\n"
        assert rule_ids(code) == []

    def test_pragma_on_closing_line_suppresses_first_line_violation(self):
        # The violation is reported at the statement's first line; the
        # pragma sits on the closing paren three lines later and must
        # still attach to the whole statement interval.
        code = (
            "total = (\n"
            "    page_ns\n"
            "    + flush_us\n"
            ")  # lint: ok[R1]\n"
        )
        assert rule_ids(code) == []

    def test_pragma_inside_function_body_does_not_cover_header(self):
        # Compound statements contribute only their header lines: a
        # pragma on a body line must not blanket the whole function.
        code = (
            "def f(delay_sec):\n"
            "    x = 1  # lint: ok[R1]\n"
            "    return delay_sec\n"
        )
        assert rule_ids(code) == ["R1"]

    def test_node_index_nodes_in_document_order(self):
        import ast

        ctx, errors = parse_context(
            "a_ns = 1\nb_ns = a_ns + 2\n\ndef f():\n    c_ns = 3\n",
            "src/repro/example.py",
        )
        assert not errors
        assigns = ctx.index.nodes(ast.Assign)
        assert [node.lineno for node in assigns] == [1, 2, 5]
        mixed = ctx.index.nodes(ast.Assign, ast.FunctionDef)
        assert [node.lineno for node in mixed] == [1, 2, 4, 5]

    def test_node_index_parent_and_enclosing(self):
        import ast

        ctx, _ = parse_context(
            "class C:\n    def m(self):\n        return object.__setattr__\n",
            "src/repro/example.py",
        )
        index = ctx.index
        attr = index.nodes(ast.Attribute)[0]
        fn = index.enclosing(attr, ast.FunctionDef)
        assert fn is not None and fn.name == "m"
        cls = index.enclosing(attr, ast.ClassDef)
        assert cls is not None and cls.name == "C"
        ret = index.nodes(ast.Return)[0]
        assert index.parent(attr) is ret

    def test_node_index_is_built_once_per_file(self):
        ctx, _ = parse_context("x_ns = 1\n", "src/repro/example.py")
        assert ctx.index is ctx.index

    def test_violation_render_format(self):
        violation = violations("import heapq\n")[0]
        assert violation.render().endswith("R3 " + violation.message)
        assert "src/repro/example.py:1" in violation.render()


class TestR12SLOObjectives:
    CATALOGUE = """
        SLO_SERVING_TAIL = "serving-tail-latency"
        METRIC_SERVING_LATENCY = "serving.latency_ns"
    """

    def test_catalogued_objective_is_clean(self):
        out = project_violations(
            {
                "src/repro/obs/names.py": self.CATALOGUE,
                "src/repro/host/slo_wiring.py": """
                    from repro.obs import names

                    def declare(slo):
                        slo.objective(
                            names.SLO_SERVING_TAIL,
                            names.METRIC_SERVING_LATENCY,
                            quantile=99.9,
                        )
                """,
            },
            "R12",
        )
        assert out == []

    def test_hardcoded_objective_name_fires(self):
        out = project_violations(
            {
                "src/repro/obs/names.py": self.CATALOGUE,
                "src/repro/host/slo_wiring.py": """
                    from repro.obs import names

                    def declare(slo):
                        slo.objective(
                            "ad-hoc-slo", names.METRIC_SERVING_LATENCY
                        )
                        slo.objective(
                            names.SLO_SERVING_TAIL,
                            names.METRIC_SERVING_LATENCY,
                        )
                """,
            },
            "R12",
        )
        assert [v.rule for v in out] == ["R12"]
        assert "'ad-hoc-slo'" in out[0].message

    def test_hardcoded_objective_metric_fires(self):
        out = project_violations(
            {
                "src/repro/obs/names.py": self.CATALOGUE,
                "src/repro/host/slo_wiring.py": """
                    from repro.obs import names

                    def declare(slo):
                        slo.objective(
                            names.SLO_SERVING_TAIL, "serving.latency_ns"
                        )
                        slo.objective(
                            names.SLO_SERVING_TAIL,
                            names.METRIC_SERVING_LATENCY,
                        )
                """,
            },
            "R12",
        )
        assert [v.rule for v in out] == ["R12"]
        assert "'serving.latency_ns'" in out[0].message
