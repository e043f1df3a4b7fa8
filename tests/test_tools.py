"""The command-line tools under ``tools/``."""

import importlib.util
import inspect
import json
import re
import subprocess
import sys

from pathlib import Path

import pytest

from confadapt import losses

ROOT = Path(__file__).resolve().parents[1]


_spec = importlib.util.spec_from_file_location("codelines", ROOT / "tools" / "codelines.py")
codelines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(codelines)


@pytest.mark.parametrize("source, lines", [
    ('"""Module docstring,\nover two lines."""\nx = 1\n', 1),
    ('class A:\n    """Class docstring."""\n    x = 1\n', 2),
    ('def f():\n    """Function docstring,\n    over two lines."""\n    return 1\n', 2),
    ('x = 1\n\n# a comment-only line\n    # an indented one\ny = 2  # after code\n', 2),
    ('x = f(1,\n      2)\ny = [\n    3,\n]\n', 5),
    ('s = """a string,\nnot a docstring"""\n', 2),
])
def test_codelines_counts_each_line_that_holds_code(source, lines):
    assert codelines.code_lines(source) == lines


def test_unreached_lists_lines_the_tests_never_ran():
    # importing the package runs no loss, so the lines of ctc_loss's body are listed
    run = subprocess.run([sys.executable, "tools/unreached.py", "-q", "-p", "no:cacheprovider",
                          "tests/test_namespace.py"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    section = run.stdout.split("src/confadapt/losses.py:", 1)[1].split("\n\n", 1)[0]
    listed = {int(m) for m in re.findall(r"^\s*(\d+)  ", section, re.MULTILINE)}
    body, first = inspect.getsourcelines(losses.ctc_loss)
    assert listed & set(range(first + 1, first + len(body)))


# each package code object that the demo recipe's command-line sequence
# never calls (``cli_unreached`` of tools/unreached.py), and why it stays
CLI_UNREACHED = {
    "checkpoint.Checkpoint.require_kind.<locals>.<listcomp>":
        "tested refusal: the lineage in a wrong-kind checkpoint's message",
    "cli.<lambda>": "the type check of a JSON bool; the demo config sets no bool field",
    "cli._error_record": "tested refusal: the JSON record of a failed command",
    "data.default_domain_pair": "bench/workloads.py builds its corpora with it",
    "optim.Adam.step.<locals>.<genexpr>":
        "tested refusal: names the parameter whose gradient is not finite",
    "pipeline.RecipeError.__init__": "tested refusal: a recipe that check_recipe refuses",
    "pipeline.StageConfig.__post_init__.<locals>.refuse":
        "tested refusal: a stage setting out of range or not read by its kind",
    "space.GroupWeights.__getitem__": "criterion 2 reads sample_weights(...)[key]",
    "space.param_count": "criterion 5",
    "space.param_count.<locals>.<lambda>": "criterion 5",
    "supernet.ConformerSupernet.one_hot_forward": "criterion 4",
    "supernet.DerivedModel.reinit_output_layers":
        "the finetune setting reinit_output, which the demo leaves off",
    "supernet.one_hot_weights": "criterion 4",
    "supernet.one_hot_weights.<locals>.<listcomp>": "criterion 4",
    "tensor.Tensor.__matmul__": "criterion 1 (the @ spelling)",
    "tensor.Tensor.__radd__":
        "test_search.tape_expected_param_count, the oracle of expected_param_count",
    "tensor.Tensor.__repr__": "shows a Tensor's shape and flag in a failing assert",
    "tensor.Tensor.__rmul__":
        "test_search.tape_expected_param_count, the oracle of expected_param_count",
    "tensor.Tensor.__sub__": "criterion 1 (the - spelling)",
    "tensor.Tensor.transpose": "criterion 1 (the method spelling)",
    "tensor.concat": "criterion 1",
    "tensor.concat.<locals>.<genexpr>": "criterion 1",
    "tensor.concat.<locals>.<listcomp>": "criterion 1",
    "tensor.concat.<locals>.bw": "criterion 1",
    "tensor.logsumexp": "criterion 1",
    "tensor.logsumexp.<locals>.bw": "criterion 1",
    "tensor.matmul": "criterion 1",
    "tensor.matmul.<locals>.bw": "criterion 1",
    "tensor.mix.<locals>.<listcomp>": "tested refusal: mix's shape message",
    "tensor.sigmoid": "criterion 1",
    "tensor.sigmoid.<locals>.bw": "criterion 1",
    "tensor.softmax": "criterion 1",
    "tensor.softmax.<locals>.bw": "criterion 1",
    "tensor.transpose": "criterion 1",
    "tensor.transpose.<locals>.bw": "criterion 1",
}


def test_cli_reaches_all_but_the_allowlist(tmp_path):
    # a subprocess, so that the tracer this installs never replaces the line
    # tracer tools/unreached.py runs the suite under
    code = ("import json, sys; sys.path.insert(0, 'tools'); import unreached; "
            f"print(json.dumps(unreached.cli_unreached({str(tmp_path)!r})))")
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert json.loads(run.stdout) == sorted(CLI_UNREACHED)
