"""Per-rule unit tests: one positive and one negative case per rule,
plus the edge cases each rule's semantics promise."""

import textwrap

from repro.lint import LintConfig, lint_text


def codes(source, *, module_name="snippet", path="snippet.py", config=None):
    """Rule codes the engine reports for a source snippet."""
    result = lint_text(textwrap.dedent(source), module_name=module_name,
                       path=path, config=config)
    return [finding.code for finding in result.findings]


class TestMutableDefaultRPR101:
    def test_flags_list_literal_default(self):
        assert "RPR101" in codes("def f(x=[]):\n    return x\n")

    def test_flags_dict_call_and_kwonly_default(self):
        found = codes("def f(*, cache=dict()):\n    return cache\n")
        assert found.count("RPR101") == 1

    def test_accepts_none_and_immutable_defaults(self):
        assert codes(
            "def f(x=None, y=(), z=3, name='q'):\n    return x, y, z, name\n"
        ) == []


class TestFloatEqualityRPR102:
    def test_flags_equality_against_float_literal(self):
        assert "RPR102" in codes("def f(x):\n    return x == 1.0\n")

    def test_flags_inequality_and_negative_literals(self):
        assert "RPR102" in codes("def f(x):\n    return x != -0.5\n")

    def test_accepts_integer_literals_and_ordering(self):
        assert codes(
            "def f(x):\n    return x == 1 or x < 2.5 or x >= 0.0\n"
        ) == []

    def test_pragma_suppresses(self):
        source = "def f(x):\n    return x == 1.0  # repro: ignore[RPR102]\n"
        result = lint_text(source)
        assert [f.code for f in result.findings] == []
        assert [f.code for f in result.suppressed] == ["RPR102"]


class TestBroadExceptRPR103:
    def test_flags_bare_except(self):
        assert "RPR103" in codes(
            "def f():\n    try:\n        g()\n    except:\n        pass\n")

    def test_flags_swallowed_exception(self):
        assert "RPR103" in codes(
            "def f():\n    try:\n        g()\n"
            "    except Exception:\n        return None\n")

    def test_accepts_reraising_broad_handler(self):
        assert codes(
            "def f():\n    try:\n        g()\n"
            "    except Exception:\n        log()\n        raise\n") == []

    def test_accepts_specific_exception(self):
        assert codes(
            "def f():\n    try:\n        g()\n"
            "    except KeyError:\n        return None\n") == []


FEATURIZER_BASE = """
    import abc

    class Featurizer(abc.ABC):
        @property
        @abc.abstractmethod
        def feature_length(self):
            ...

        @abc.abstractmethod
        def _featurize_expr(self, expr):
            ...
"""


class TestFeaturizerSurfaceRPR104:
    def test_flags_incomplete_concrete_subclass(self):
        source = FEATURIZER_BASE + """
    class Broken(Featurizer):
        def feature_length(self):
            return 3
    """
        assert "RPR104" in codes(source)

    def test_accepts_complete_subclass(self):
        source = FEATURIZER_BASE + """
    class Good(Featurizer):
        def feature_length(self):
            return 3

        def _featurize_expr(self, expr):
            return expr
    """
        assert codes(source) == []

    def test_accepts_inherited_implementation(self):
        source = FEATURIZER_BASE + """
    class Good(Featurizer):
        def feature_length(self):
            return 3

        def _featurize_expr(self, expr):
            return expr

    class Derived(Good):
        pass
    """
        assert codes(source) == []

    def test_skips_abstract_intermediate_class(self):
        source = FEATURIZER_BASE + """
    import abc as _abc

    class Intermediate(Featurizer):
        @_abc.abstractmethod
        def extra(self):
            ...
    """
        assert codes(source) == []


class TestGlobalNumpyRandomRPR201:
    def test_flags_np_random_seed(self):
        assert "RPR201" in codes(
            "import numpy as np\nnp.random.seed(0)\n")

    def test_flags_legacy_draw_and_from_import(self):
        assert "RPR201" in codes(
            "import numpy as np\nx = np.random.rand(3)\n")
        assert "RPR201" in codes("from numpy.random import randint\n")

    def test_accepts_generator_threading(self):
        assert codes(
            "import numpy as np\n"
            "def f(rng: np.random.Generator):\n"
            "    return rng.normal(size=3)\n") == []

    def test_accepts_seeded_default_rng(self):
        assert codes(
            "import numpy as np\nrng = np.random.default_rng(42)\n") == []


class TestUnseededGeneratorRPR202:
    def test_flags_argless_default_rng(self):
        assert "RPR202" in codes(
            "import numpy as np\nrng = np.random.default_rng()\n")

    def test_flags_bare_imported_name(self):
        assert "RPR202" in codes(
            "from numpy.random import default_rng\nrng = default_rng()\n")

    def test_accepts_any_seed_argument(self):
        assert codes(
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "rng2 = np.random.default_rng(seed=None)\n") == []


class TestImportLayeringRPR301:
    def test_flags_featurize_importing_models(self):
        assert "RPR301" in codes(
            "from repro.models import GradientBoostingRegressor\n",
            module_name="repro.featurize.evil")

    def test_flags_plain_import_and_submodule(self):
        assert "RPR301" in codes("import repro.estimators.learned\n",
                                 module_name="repro.sql.evil")

    def test_accepts_downward_import(self):
        assert codes("from repro.featurize import ConjunctiveEncoding\n",
                     module_name="repro.models.fine") == []

    def test_accepts_unlayered_module(self):
        assert codes("from repro.models import GradientBoostingRegressor\n",
                     module_name="repro.experiments.fine") == []


class TestServeLayeringRPR301:
    """The repo's own pyproject pins repro.serve above the pipeline:
    lower layers importing the serving subsystem must be flagged."""

    @staticmethod
    def _repo_config():
        from pathlib import Path

        from repro.lint.config import load_config

        return load_config(Path(__file__).resolve().parents[2] / "src")

    def test_flags_persistence_importing_serve(self):
        assert "RPR301" in codes("from repro.serve import ModelRegistry\n",
                                 module_name="repro.persistence",
                                 config=self._repo_config())

    def test_flags_estimators_importing_serve(self):
        assert "RPR301" in codes("import repro.serve.batcher\n",
                                 module_name="repro.estimators.evil",
                                 config=self._repo_config())

    def test_flags_obs_importing_serve(self):
        assert "RPR301" in codes("from repro.serve.cache import "
                                 "EstimateCache\n",
                                 module_name="repro.obs.evil",
                                 config=self._repo_config())

    def test_serve_may_import_the_layers_below(self):
        assert codes("from repro.estimators import LearnedEstimator\n"
                     "from repro.persistence import load_estimator\n"
                     "from repro import obs\n",
                     module_name="repro.serve.server",
                     config=self._repo_config()) == []


class TestPrintInLibraryRPR302:
    def test_flags_print_in_library_module(self):
        assert "RPR302" in codes("def f():\n    print('hi')\n",
                                 module_name="repro.featurize.noisy")

    def test_accepts_print_in_allowed_cli_module(self):
        assert codes("def f():\n    print('hi')\n",
                     module_name="repro.cli") == []

    def test_config_extends_the_allowlist(self):
        config = LintConfig(print_allowed=("mytool.cli",))
        assert codes("print('x')\n", module_name="mytool.cli.sub",
                     config=config) == []


class TestAdHocTimingRPR108:
    def test_flags_time_attribute_call(self):
        assert "RPR108" in codes(
            "import time\n\ndef f():\n    return time.perf_counter()\n",
            module_name="repro.featurize.base")

    def test_flags_aliased_module_and_from_import(self):
        assert "RPR108" in codes(
            "import time as t\n\ndef f():\n    return t.monotonic_ns()\n",
            module_name="repro.models.neural_net")
        assert "RPR108" in codes(
            "from time import perf_counter\n\n"
            "def f():\n    return perf_counter()\n",
            module_name="repro.experiments.runner")

    def test_accepts_non_clock_time_functions(self):
        assert codes(
            "import time\n\ndef f():\n    time.sleep(0.1)\n",
            module_name="repro.data.loader") == []

    def test_obs_and_bench_are_exempt(self):
        source = "import time\n\ndef f():\n    return time.perf_counter()\n"
        assert codes(source, module_name="repro.obs.trace") == []
        assert codes(source, module_name="repro.bench") == []

    def test_only_applies_inside_repro(self):
        assert codes(
            "import time\n\ndef f():\n    return time.time()\n",
            module_name="scripts.profile") == []

    def test_pragma_suppresses(self):
        source = ("import time\n\ndef f():\n"
                  "    return time.time()  # repro: ignore[RPR108]\n")
        result = lint_text(source, module_name="repro.metrics")
        assert result.findings == ()
        assert [f.code for f in result.suppressed] == ["RPR108"]


class TestDunderAllRPR303:
    def test_flags_public_definition_missing_from_all(self):
        assert "RPR303" in codes(
            "__all__ = ['f']\n\ndef f():\n    return 1\n\n"
            "def g():\n    return 2\n")

    def test_flags_dangling_and_duplicate_names(self):
        found = codes("__all__ = ['ghost', 'ghost']\n")
        assert found.count("RPR303") >= 2

    def test_accepts_matching_all(self):
        assert codes(
            "__all__ = ['f', 'LIMIT']\n\nLIMIT = 3\n\n"
            "def f():\n    return LIMIT\n\ndef _private():\n    return 0\n"
        ) == []

    def test_init_requires_intra_package_reexports_only(self):
        source = ("from pathlib import Path\n"
                  "from repro.pkg.core import thing\n"
                  "__all__ = ['thing']\n")
        assert codes(source, module_name="repro.pkg",
                     path="repro/pkg/__init__.py") == []
        missing = codes("from repro.pkg.core import thing\n__all__ = []\n",
                        module_name="repro.pkg",
                        path="repro/pkg/__init__.py")
        assert "RPR303" in missing

    def test_module_without_all_is_not_checked(self):
        assert codes("def undeclared():\n    return 1\n") == []


class TestEngineBehaviour:
    def test_syntax_error_becomes_parse_finding(self):
        result = lint_text("def f(:\n")
        assert [f.code for f in result.findings] == ["RPR001"]

    def test_blanket_pragma_suppresses_all_codes_on_line(self):
        source = "def f(x=[]):  # repro: ignore\n    return x\n"
        result = lint_text(source)
        assert result.findings == ()
        assert [f.code for f in result.suppressed] == ["RPR101"]

    def test_pragma_for_other_code_does_not_suppress(self):
        source = "def f(x=[]):  # repro: ignore[RPR999]\n    return x\n"
        assert [f.code for f in lint_text(source).findings] == ["RPR101"]

    def test_ignore_config_disables_rule(self):
        config = LintConfig(ignore=frozenset({"RPR101"}))
        assert codes("def f(x=[]):\n    return x\n", config=config) == []

    def test_select_config_limits_rules(self):
        config = LintConfig(select=frozenset({"RPR102"}))
        source = "def f(x=[]):\n    return x == 1.0\n"
        assert codes(source, config=config) == ["RPR102"]

    def test_findings_are_sorted_and_located(self):
        result = lint_text("x = 1 == 2.0\ny = 3 == 4.0\n")
        lines = [f.line for f in result.findings]
        assert lines == sorted(lines) == [1, 2]
        assert all(f.path == "snippet.py" for f in result.findings)


class TestMetricNameDriftRPR110:
    def test_flags_fstring_metric_name(self):
        assert "RPR110" in codes(
            'def f(kind, registry):\n'
            '    registry.counter(f"serve.cache.{kind}").inc()\n',
            module_name="repro.serve.cache")

    def test_flags_concatenated_and_formatted_names(self):
        assert "RPR110" in codes(
            'def f(prefix, registry):\n'
            '    registry.histogram(prefix + ".seconds").record(1.0)\n',
            module_name="repro.serve.server")
        assert "RPR110" in codes(
            'def f(obs, kind):\n'
            '    with obs.span("serve.{}".format(kind)):\n'
            '        pass\n',
            module_name="repro.serve.server")

    def test_flags_non_dotted_lowercase_literal(self):
        assert "RPR110" in codes(
            'def f(registry):\n'
            '    registry.counter("Serve-Requests").inc()\n',
            module_name="repro.serve.server")
        assert "RPR110" in codes(
            'def f(obs):\n'
            '    with obs.span("serve.request.", metric="ok.name"):\n'
            '        pass\n',
            module_name="repro.serve.server")

    def test_flags_dynamic_metric_keyword(self):
        assert "RPR110" in codes(
            'def f(obs, stage):\n'
            '    with obs.span("serve.request", metric=f"{stage}.s"):\n'
            '        pass\n',
            module_name="repro.serve.server")

    def test_accepts_literals_and_preresolved_variables(self):
        assert codes(
            'def f(self, obs, registry):\n'
            '    registry.counter("serve.requests_total").inc()\n'
            '    registry.counter(self._hits_metric).inc()\n'
            '    with obs.span("serve.request",\n'
            '                  metric="serve.request.seconds"):\n'
            '        pass\n',
            module_name="repro.serve.server") == []

    def test_obs_layer_is_exempt(self):
        assert codes(
            'def f(self, name):\n'
            '    self.counter(name + "_total").inc()\n',
            module_name="repro.obs.prometheus") == []

    def test_only_applies_inside_repro(self):
        assert codes(
            'def f(registry, kind):\n'
            '    registry.counter(f"x.{kind}").inc()\n',
            module_name="scripts.dashboard") == []

    def test_pragma_suppresses(self):
        source = ('def f(registry, kind):\n'
                  '    registry.counter(f"c.{kind}").inc()'
                  '  # repro: ignore[RPR110]\n')
        result = lint_text(source, module_name="repro.serve.cache")
        assert result.findings == ()
        assert [f.code for f in result.suppressed] == ["RPR110"]


class TestSubprocessWithoutDrainRPR111:
    def test_flags_undrained_attribute_binding(self):
        assert "RPR111" in codes(
            'import subprocess\n'
            'class W:\n'
            '    def start(self):\n'
            '        self._proc = subprocess.Popen(["sleep", "1"])\n',
            module_name="repro.fleet.evil")

    def test_flags_undrained_local_and_unbound_spawn(self):
        assert "RPR111" in codes(
            'import subprocess\n'
            'def f():\n'
            '    proc = subprocess.Popen(["sleep", "1"])\n'
            '    return proc.pid\n',
            module_name="repro.serve.evil")
        assert "RPR111" in codes(
            'import subprocess\n'
            'def f():\n'
            '    subprocess.Popen(["sleep", "1"])\n',
            module_name="repro.fleet.evil")

    def test_accepts_direct_drain(self):
        assert "RPR111" not in codes(
            'import subprocess\n'
            'class W:\n'
            '    def start(self):\n'
            '        self._proc = subprocess.Popen(["sleep", "1"])\n'
            '    def stop(self):\n'
            '        self._proc.wait()\n',
            module_name="repro.fleet.ok")

    def test_accepts_drain_through_alias(self):
        assert "RPR111" not in codes(
            'import subprocess\n'
            'class W:\n'
            '    def start(self):\n'
            '        self._proc = subprocess.Popen(["sleep", "1"])\n'
            '    def stop(self):\n'
            '        proc = self._proc\n'
            '        proc.terminate()\n'
            '        proc.wait()\n',
            module_name="repro.fleet.ok")

    def test_flags_from_import_and_multiprocessing(self):
        assert "RPR111" in codes(
            'from subprocess import Popen\n'
            'def f():\n'
            '    worker = Popen(["sleep", "1"])\n'
            '    return worker\n',
            module_name="repro.fleet.evil")
        assert "RPR111" in codes(
            'import multiprocessing\n'
            'def f(target):\n'
            '    child = multiprocessing.Process(target=target)\n'
            '    child.start()\n',
            module_name="repro.fleet.evil")

    def test_subprocess_run_is_not_a_spawn(self):
        assert "RPR111" not in codes(
            'import subprocess\n'
            'def f():\n'
            '    return subprocess.run(["ls"], check=True)\n',
            module_name="repro.fleet.ok")

    def test_only_applies_to_serving_layers(self):
        assert "RPR111" not in codes(
            'import subprocess\n'
            'def f():\n'
            '    proc = subprocess.Popen(["sleep", "1"])\n'
            '    return proc.pid\n',
            module_name="repro.experiments.runner")

    def test_pragma_suppresses(self):
        source = ('import subprocess\n'
                  'def f():\n'
                  '    proc = subprocess.Popen(["ls"])'
                  '  # repro: ignore[RPR111]\n'
                  '    return proc\n')
        result = lint_text(source, module_name="repro.fleet.evil")
        assert "RPR111" not in [f.code for f in result.findings]
        assert "RPR111" in [f.code for f in result.suppressed]
