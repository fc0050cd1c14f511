import collections
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from kstrata import cli, quartic
from kstrata.signature import validate

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "classify": ["classify", "--k", "5", "--genus", "2", "--orders", "10", "--json"],
    "breakdown": ["breakdown", "--k", "4", "--genus", "1", "--orders", "8,-8", "--json"],
    "genus1": ["genus1", "--k", "1", "--orders", "6,-6", "--json"],
    "merge": [
        "merge", "--k", "1", "--genus", "1", "--orders", "3,1,-4",
        "--rotation", "1", "--i", "0", "--j", "1", "--json",
    ],
    "split": ["split", "--k", "3", "--genus", "2", "--orders", "6", "--index", "0", "--json"],
    "arf": ["arf", "--pairs", "1,1;0,0", "--json"],
    "spin": ["spin", "--k", "5", "--genus", "1", "--orders", "4,-4", "--pairs", "2,4", "--json"],
    "prong": ["prong", "--k", "5", "--a", "3", "--torsion", "3", "--json"],
    "cylinder": ["cylinder", "--k", "2", "--orders", "-1,-1,-1,-1", "--json"],
    "quartic_verify": ["quartic-verify", "--construction", "OddArf_h0_0", "--json"],
}


# One command per branch the golden cases do not reach, and the cases that
# pin the JSON encoder's rules (tags, omitted defaults, kept nulls).
BRANCH_CASES = {
    "classify_generic": ["classify", "--k", "3", "--genus", "2", "--orders", "6"],
    "classify_genus0": ["classify", "--k", "1", "--genus", "0", "--orders", "1,-3"],
    "classify_relative_arf": ["classify", "--k", "1", "--genus", "3", "--orders", "6,-1,-1"],
    "classify_cubic": ["classify", "--k", "3", "--genus", "3", "--orders", "12"],
    "merge_plain": ["merge", "--k", "2", "--genus", "2", "--orders", "2,1,1", "--i", "1", "--j", "2"],
    "merge_genus1_null": [
        "merge", "--k", "1", "--genus", "1", "--orders", "3,-3",
        "--rotation", "1", "--i", "0", "--j", "1",
    ],
    "split_apply": [
        "split", "--k", "3", "--genus", "2", "--orders", "6", "--index", "0", "--a", "-1", "--b", "1",
    ],
    "split_sphere": [
        "split", "--k", "3", "--genus", "1", "--orders", "6,-6",
        "--index", "0", "--a", "-1", "--b", "1", "--rotation", "2",
    ],
    "arf_relative": ["arf", "--pairs", "1,1", "--sbar", "1"],
    # genus 0 has no symplectic pairs, so blank text is the one valid list
    "spin_genus0_no_pairs": ["spin", "--k", "3", "--genus", "0", "--orders", "-6", "--pairs", ""],
    "prong_global": ["prong", "--k", "3", "--a", "1", "--b", "1", "--rotation", "1", "--rest=-2"],
    "prong_local": ["prong", "--k", "3", "--a", "2", "--b", "-2"],
    "quartic_verify_second": ["quartic-verify", "--construction", "OddArf_h0_1"],
}

BRANCH_PAYLOADS = {
    "classify_generic": {
        "components": [{"type": "generic"}], "count": 1, "signature": "k:3 g:2 orders:(6)",
    },
    "classify_genus0": {
        "components": [{"type": "generic"}],
        "count": 1,
        "note": "hyperellipticity not evaluated in genus zero",
        "signature": "k:1 g:0 orders:(1,-3)",
    },
    "classify_relative_arf": {
        "components": [{"parity": 0, "type": "relative_arf"}, {"parity": 1, "type": "relative_arf"}],
        "count": 2,
        "signature": "k:1 g:3 orders:(6,-1,-1)",
    },
    "merge_plain": {
        "feasible": True,
        "reason": "",
        "result": "k:2 g:2 orders:(2,2)",
        "signature": "k:2 g:2 orders:(2,1,1)",
        "simple_merge": True,
    },
    "merge_genus1_null": {
        "feasible": False,
        "reason": "merging the only two singularities of (a,-a)",
        "result": None,
        "rotations": [],
        "signature": "k:1 g:1 orders:(3,-3)",
    },
    "split_apply": {
        "a": -1, "b": 1, "result": "k:3 g:1 orders:(1,-1)", "signature": "k:3 g:2 orders:(6)",
    },
    "split_sphere": {
        "a": -1, "b": 1, "reachable": True, "rotation": 2, "signature": "k:3 g:1 orders:(6,-6)",
    },
    "arf_relative": {"relative_arf": 1},
    "spin_genus0_no_pairs": {"boundary": [-3], "signature": "k:3 g:0 orders:(-6)", "spin": 0},
    "prong_global": {"a": 1, "b": 1, "global_classes": 4, "k": 3, "rest": [-2], "rotation": 1},
    "prong_local": {"a": 2, "b": -2, "k": 3, "local_classes": 1},
}


# Commands that must stop with a usage error (exit 2): options that would be
# ignored, malformed pairs, k < 1, an option the command does not have and a
# split listing past its budget.
REJECTED_CASES = {
    "classify_orders_file_with_k": (
        ["classify", "--orders-file", "strata.txt", "--k", "3"],
        "--orders-file takes no --k, --genus or --orders",
    ),
    "classify_orders_file_with_genus": (
        ["classify", "--orders-file", "strata.txt", "--genus", "2"],
        "--orders-file takes no --k, --genus or --orders",
    ),
    "classify_orders_file_with_orders": (
        ["classify", "--orders-file", "strata.txt", "--orders", "6"],
        "--orders-file takes no --k, --genus or --orders",
    ),
    "classify_orders_trailing_comma": (
        ["classify", "--k", "1", "--genus", "2", "--orders", "2,"], "bad orders list '2,'",
    ),
    "classify_orders_leading_comma": (
        ["classify", "--k", "1", "--genus", "2", "--orders", ",2"], "bad orders list ',2'",
    ),
    "classify_orders_doubled_comma": (
        ["classify", "--k", "1", "--genus", "2", "--orders", "1,,1"], "bad orders list '1,,1'",
    ),
    "prong_rest_trailing_comma": (
        ["prong", "--k", "3", "--a", "1", "--b", "1", "--rotation", "1", "--rest=-2,"],
        "bad orders list '-2,'",
    ),
    "prong_rest_without_rotation": (
        ["prong", "--k", "3", "--a", "1", "--b", "1", "--rest=-2"], "--rest needs --rotation",
    ),
    "prong_torsion_with_rotation": (
        ["prong", "--k", "5", "--a", "3", "--torsion", "3", "--rotation", "1"],
        "--torsion takes no --b or --rotation",
    ),
    "prong_local_without_b": (["prong", "--k", "3", "--a", "2"], "--b is required for local prong classes"),
    "prong_global_without_b": (
        ["prong", "--k", "3", "--a", "2", "--rotation", "1"], "--b is required for global prong classes",
    ),
    "prong_torsion_with_b": (
        ["prong", "--k", "5", "--a", "3", "--torsion", "3", "--b", "1"],
        "--torsion takes no --b or --rotation",
    ),
    "arf_pair_not_integers": (["arf", "--pairs", "a,b"], "bad pair 'a,b'; expected 'wa,wb'"),
    "arf_pair_of_three": (["arf", "--pairs", "1,1;1,2,3"], "bad pair '1,2,3'; expected 'wa,wb'"),
    "arf_pairs_trailing_semicolon": (["arf", "--pairs", "1,1;"], "bad pair ''; expected 'wa,wb'"),
    "arf_pairs_doubled_semicolon": (["arf", "--pairs", "1,1;;0,0"], "bad pair ''; expected 'wa,wb'"),
    "spin_pair_not_integers": (
        ["spin", "--k", "5", "--genus", "1", "--orders", "4,-4", "--pairs", "x,4"],
        "bad pair 'x,4'; expected 'wa,wb'",
    ),
    "spin_pairs_fewer_than_genus": (
        ["spin", "--k", "1", "--genus", "2", "--orders", "2", "--pairs", "1,2"],
        "genus 2 needs 2 symplectic pairs, got 1",
    ),
    "split_b_without_a": (
        ["split", "--k", "3", "--genus", "2", "--orders", "6", "--index", "0", "--b", "1"],
        "--a and --b must be given together",
    ),
    "split_rotation_without_a_b": (
        ["split", "--k", "3", "--genus", "1", "--orders", "6,-6", "--index", "0", "--rotation", "7"],
        "--rotation needs --a and --b",
    ),
    "split_rotation_genus2": (
        ["split", "--k", "3", "--genus", "2", "--orders", "6", "--index", "0",
         "--a", "-2", "--b", "2", "--rotation", "1"],
        "expected genus one, got genus 2",
    ),
    "merge_rotation_genus2": (
        ["merge", "--k", "3", "--genus", "2", "--orders", "3,3", "--i", "0", "--j", "1", "--rotation", "5"],
        "expected genus one, got genus 2",
    ),
    "cylinder_negative_k": (["cylinder", "--k", "-2", "--orders", "2,2"], "k must be positive, got -2"),
    "prong_zero_k": (["prong", "--k", "0", "--a", "2", "--b", "2"], "k must be positive, got 0"),
    "prong_torsion_zero_k": (["prong", "--k", "0", "--a", "2", "--torsion", "2"], "k must be positive"),
    "quartic_precision_cap": (
        ["quartic-verify", "--construction", "OddArf_h0_0", "--precision", "1000000000"],
        "kstrata: error: unrecognized arguments: --precision 1000000000",
    ),
    "split_listing_budget": (
        ["split", "--k", "1", "--genus", "50000001", "--orders", "100000000", "--index", "0"],
        "has 50000000 splits, more than the supported maximum",
    ),
    "genus1_divisor_budget": (
        ["genus1", "--k", "1", "--orders", "100000000000000006,-100000000000000006"],
        "100000000000000006 exceeds the supported maximum",
    ),
    "classify_divisor_budget": (
        ["classify", "--k", "1", "--genus", "1", "--orders", "100000000000000006,-100000000000000006"],
        "100000000000000006 exceeds the supported maximum",
    ),
    "breakdown_divisor_budget": (
        ["breakdown", "--k", "100000000000000006", "--genus", "2", "--orders", "200000000000000012"],
        "100000000000000006 exceeds the supported maximum",
    ),
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_json_output_matches_golden(name):
    code, out, err = run_cli(GOLDEN_CASES[name])
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_json_output_round_trips(name):
    code, out, _ = run_cli(GOLDEN_CASES[name])
    assert code == 0
    payload = json.loads(out)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_human_mode_carries_same_command(name):
    argv = [arg for arg in GOLDEN_CASES[name] if arg != "--json"]
    code, out, err = run_cli(argv)
    assert code == 0 and err == ""
    assert out.strip()
    assert not out.lstrip().startswith("{")


def test_classify_example_count_in_json():
    code, out, _ = run_cli(["classify", "--k", "5", "--genus", "2", "--orders", "10", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert {c["type"] for c in payload["components"]} == {"arf"}


def test_classify_rejects_marked_points_with_exit_2(tmp_path):
    code, out, err = run_cli(["classify", "--k", "2", "--genus", "2", "--orders", "5,-1,0"])
    assert code == 2
    assert "error" in err
    batch = tmp_path / "strata.txt"
    batch.write_text("k:5 g:2 orders:(10)\nk:2 g:2 orders:(5,-1,0)\n", encoding="utf-8")
    code, out, err = run_cli(["classify", "--orders-file", str(batch)])
    assert (code, out) == (2, "")
    assert err == "error: classification rejects marked points (zero orders)\n"


def test_classify_orders_file(tmp_path):
    batch = tmp_path / "strata.txt"
    batch.write_text(
        "# two strata\nk:5 g:2 orders:(10)\nk:3 g:2 orders:(6)\n", encoding="utf-8"
    )
    code, out, _ = run_cli(["classify", "--orders-file", str(batch), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert [r["count"] for r in payload["reports"]] == [2, 1]


def test_classify_needs_arguments():
    with pytest.raises(SystemExit) as exc:
        run_cli(["classify"])
    assert exc.value.code == 2


def test_split_index_out_of_range_is_a_usage_error():
    code, _, err = run_cli(["split", "--k", "3", "--genus", "2", "--orders", "6", "--index", "4"])
    assert code == 2 and "out of range" in err


def test_quartic_verify_all_checks_true():
    code, out, _ = run_cli(["quartic-verify", "--construction", "OddArf_h0_0", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_split_reachability_flag():
    code, out, _ = run_cli(
        ["split", "--k", "3", "--genus", "1", "--orders", "6,-6",
         "--index", "0", "--a", "-1", "--b", "1", "--rotation", "2", "--json"]
    )
    assert code == 0
    assert json.loads(out)["reachable"] is True


def test_merge_same_sign_report():
    code, out, _ = run_cli(
        ["merge", "--k", "2", "--genus", "2", "--orders", "2,1,1", "--i", "1", "--j", "2", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "k:2 g:2 orders:(2,2)"
    assert payload["simple_merge"] is True


def test_merge_mixed_pair_is_unknown():
    code, out, _ = run_cli(
        ["merge", "--k", "2", "--genus", "2", "--orders", "5,-1", "--i", "0", "--j", "1", "--json"]
    )
    assert code == 0
    assert json.loads(out)["simple_merge"] == "unknown"


def test_installed_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "kstrata.cli", "classify", "--k", "3", "--genus", "2", "--orders", "6"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "components: 1" in result.stdout


def run_json(argv):
    code, out, err = run_cli([*argv, "--json"])
    assert code == 0 and err == ""
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
    return json.loads(out)


@pytest.mark.parametrize("name", sorted(BRANCH_CASES))
def test_branch_json_round_trips(name):
    payload = run_json(BRANCH_CASES[name])
    if name in BRANCH_PAYLOADS:
        assert payload == BRANCH_PAYLOADS[name]


@pytest.mark.parametrize("name", sorted(BRANCH_CASES))
def test_branch_human_mode(name):
    code, out, err = run_cli(BRANCH_CASES[name])
    assert code == 0 and err == ""
    assert out.strip() and not out.lstrip().startswith("{")


def test_report_serialization_shape():
    payload = run_json(BRANCH_CASES["classify_cubic"])
    assert payload["count"] == 3
    assert payload["components"][0] == {
        "type": "cubic_sporadic",
        "arf_parity": 0,
        "h0_flag": 0,
    }
    assert payload["signature"] == "k:3 g:3 orders:(12)"
    assert "empty_reason" not in payload and "note" not in payload


def test_empty_reason_is_written_when_set():
    payload = run_json(["classify", "--k", "1", "--genus", "2", "--orders", "3,-1"])
    assert payload == {
        "components": [], "count": 0, "empty_reason": "EmptyStratum",
        "signature": "k:1 g:2 orders:(3,-1)",
    }


def test_human_descriptor_text():
    _, out, _ = run_cli(BRANCH_CASES["classify_cubic"])
    assert out.splitlines()[2] == "  - cubic_sporadic(arf_parity=0, h0_flag=0)"
    _, out, _ = run_cli(BRANCH_CASES["classify_relative_arf"])
    assert "  - relative_arf(parity=1)" in out.splitlines()
    _, out, _ = run_cli(BRANCH_CASES["classify_genus0"])
    assert out.splitlines()[2:] == ["  - generic", "note: hyperellipticity not evaluated in genus zero"]


def test_second_construction_passes():
    payload = run_json(BRANCH_CASES["quartic_verify_second"])
    assert payload["construction"] == "OddArf_h0_1"
    assert payload["all_passed"] is True


def test_classify_orders_file_human(tmp_path):
    batch = tmp_path / "strata.txt"
    batch.write_text("k:5 g:2 orders:(10)\n\nk:1 g:2 orders:(3,-1)\n", encoding="utf-8")
    code, out, err = run_cli(["classify", "--orders-file", str(batch)])
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "k:5 g:2 orders:(10)", "components: 2", "  - arf(parity=0)", "  - arf(parity=1)",
        "k:1 g:2 orders:(3,-1)", "components: 0", "reason: EmptyStratum",
    ]


@pytest.mark.parametrize("name", sorted(REJECTED_CASES))
def test_rejected_commands_exit_2_quickly(name):
    argv, message = REJECTED_CASES[name]
    # argparse refuses an unknown option itself: it exits after its usage lines
    by_argparse = message.startswith("kstrata: error: ")
    for args in (argv, [*argv, "--json"]):
        start = time.perf_counter()
        code, out, err = run_to_exit(args) if by_argparse else run_cli(args)
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        if by_argparse:
            assert err.startswith("usage: kstrata ") and err.endswith(f"\n{message}\n")
        else:
            assert err.startswith("error: ") and message in err


def test_split_applies_on_a_zero_too_large_to_list():
    argv = ["split", "--k", "1", "--genus", "50000001", "--orders", "100000000", "--index", "0",
            "--a", "3", "--b", "99999995"]
    start = time.perf_counter()
    assert run_json(argv) == {
        "a": 3,
        "b": 99999995,
        "result": "k:1 g:50000000 orders:(99999995,3)",
        "signature": "k:1 g:50000001 orders:(100000000)",
    }
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "k, orders",
    [
        # k near the divisor cap: listing its divisors took 0.5 s
        (9999999999971, "19999999999941,1"),
        # k past the cap: this was refused, though the answer is one row
        (99999999999973, "199999999999945,1"),
    ],
)
def test_breakdown_lists_the_divisors_of_gcd_k_and_orders(k, orders):
    start = time.perf_counter()
    report = run_json(["breakdown", "--k", str(k), "--genus", "2", "--orders", orders])
    assert time.perf_counter() - start < 0.25
    assert [row["divisor"] for row in report["rows"]] == [k]


def run_to_exit(argv):
    """(exit code, stdout, stderr) of a call that argparse ends with SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli.main(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def usage_words(text):
    """text with each whitespace run in its usage block, up to the first blank line, made one space."""
    usage, blank, rest = text.partition("\n\n")
    return " ".join(usage.split()) + blank + rest


@pytest.mark.parametrize(
    "argv, name",
    [(["--help"], "help.txt"), (["quartic-verify", "--help"], "quartic_verify_help.txt")],
)
def test_help_matches_golden(monkeypatch, argv, name):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    code, out, err = run_to_exit(argv)
    assert (code, err) == (0, "")
    golden = (GOLDEN / name).read_text(encoding="utf-8")
    if sys.version_info >= (3, 13):
        # 3.13's argparse wraps the usage lines differently; the rest is unchanged
        out, golden = usage_words(out), usage_words(golden)
    assert out == golden


def test_usage_words_join_the_usage_block_only():
    text = "usage: kstrata [-h]\n               {classify,arf}\n               ...\n\nkeep  this\n  as is\n"
    assert usage_words(text) == "usage: kstrata [-h] {classify,arf} ...\n\nkeep  this\n  as is\n"


def test_quartic_verify_help_lists_the_constructions(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    _, out, _ = run_to_exit(["quartic-verify", "--help"])
    assert f"--construction {{{','.join(sorted(quartic._load_constructions()))}}}" in out


def test_readme_shows_the_flags_the_commands_have(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    flag = re.compile(r"--[a-z][a-z-]*")
    _, out, _ = run_to_exit(["--help"])
    commands = re.search(r"\{([a-z0-9,-]+)\}", out).group(1).split(",")
    in_cli = set()
    for command in commands:
        in_cli |= set(flag.findall(run_to_exit([command, "--help"])[1]))
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    in_readme = set(flag.findall(readme)) - {"--no-build-isolation"}  # pip's
    assert in_readme - in_cli == set()
    assert in_cli - in_readme == set()


def test_unknown_construction_is_a_usage_error():
    code, out, err = run_to_exit(["quartic-verify", "--construction", "bad"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "kstrata quartic-verify: error: argument --construction: invalid choice: 'bad' "
        "(choose from 'OddArf_h0_0', 'OddArf_h0_1')"
    )


# Runs one command in a new interpreter; prints the exit code, the output
# and the modules the call loaded beyond what the interpreter started with;
# ``--help`` exits through SystemExit
IMPORT_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from kstrata import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, out.getvalue(), sorted(set(sys.modules) - before)]))
"""

CERTIFICATION_STACK = {"kstrata.polynomials", "kstrata.series", "kstrata.quartic", "fractions"}
# importlib.resources and what it imports
RESOURCE_LOADER = {"importlib.resources", "zipfile", "pathlib", "tempfile", "typing"}


def loaded_by(argv, code=0, err="", flags=()):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, *flags, "-c", IMPORT_PROBE, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stderr == err
    exit_code, out, modules = json.loads(done.stdout)
    assert exit_code == code
    return out, set(modules)


def test_classify_loads_no_certification_stack(tmp_path):
    out, single = loaded_by(GOLDEN_CASES["classify"])
    assert out == (GOLDEN / "classify.json").read_text(encoding="utf-8")
    assert "kstrata.classifier" in single
    # the genus-one moves load degeneration; classification never does
    assert not single & (CERTIFICATION_STACK | {"kstrata.degeneration"})
    batch = write_batch(tmp_path / "strata.txt", BATCH_SPECIALS)
    for mode in ([], ["--json"]):
        argv = ["classify", "--orders-file", str(batch), *mode]
        out, loaded = loaded_by(argv)
        assert out == run_cli(argv)[1]
        assert loaded <= single


@pytest.mark.parametrize("name", ["classify", "classify_json", "orders_file", "orders_file_json", "help"])
def test_one_shot_calls_load_no_resource_loader(tmp_path, name):
    # -S keeps out the site hooks, which may load these modules before kstrata
    if name.startswith("orders_file"):
        argv = ["classify", "--orders-file", str(write_batch(tmp_path / "strata.txt", BATCH_SPECIALS))]
    else:
        # the classify golden less its --json
        argv = {"classify": GOLDEN_CASES["classify"][:-1], "help": ["--help"]}[name.removesuffix("_json")]
    argv = argv + (["--json"] if name.endswith("_json") else [])
    out, loaded = loaded_by(argv, flags=["-S"])
    assert out
    assert not loaded & RESOURCE_LOADER


# Runs one command in a new interpreter that has not loaded json itself, and
# prints whether the call left json in sys.modules
JSON_PROBE = """
import contextlib, io, sys
from kstrata import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
print("json" in sys.modules)
"""


@pytest.mark.parametrize("name", ["classify", "classify_json", "orders_file", "orders_file_json"])
def test_only_json_calls_load_json(tmp_path, name):
    if name.startswith("orders_file"):
        argv = ["classify", "--orders-file", str(write_batch(tmp_path / "strata.txt", BATCH_SPECIALS))]
    else:
        argv = GOLDEN_CASES["classify"][:-1]
    json_mode = name.endswith("_json")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", JSON_PROBE, *argv, *(["--json"] if json_mode else [])],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout == f"{json_mode}\n"


def test_prong_loads_no_degeneration():
    out, loaded = loaded_by(GOLDEN_CASES["prong"])
    assert out == (GOLDEN / "prong.json").read_text(encoding="utf-8")
    assert "kstrata.genus_one" in loaded and "kstrata.degeneration" not in loaded


# orders that miss k(2g-2): the signature is refused before the classifier loads
INVALID_CLASSIFY = ["classify", "--k", "2", "--genus", "2", "--orders", "3"]


@pytest.mark.parametrize("name", ["cylinder", "arf", "invalid_classify"])
def test_combinatorial_commands_load_no_classifier(name):
    if name == "invalid_classify":
        err = "error: orders (3,) sum to 3, expected k(2g-2) = 4\n"
        out, loaded = loaded_by(INVALID_CLASSIFY, code=2, err=err)
        assert out == ""
    else:
        out, loaded = loaded_by(GOLDEN_CASES[name])
        assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert not loaded & (CERTIFICATION_STACK | {"kstrata.classifier"})


def test_quartic_verify_loads_the_certification_stack():
    out, loaded = loaded_by(GOLDEN_CASES["quartic_verify"])
    assert out == (GOLDEN / "quartic_verify.json").read_text(encoding="utf-8")
    # fractions may be loaded before kstrata is, by the interpreter's site hooks
    assert CERTIFICATION_STACK - {"fractions"} <= loaded


# Runs one command in a new interpreter, as IMPORT_PROBE does, and prints the
# exit code, the output and which of dataclasses and inspect are loaded then;
# a usage error's exit code comes from SystemExit
RECORD_PROBE = """
import contextlib, io, json, sys
from kstrata import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, out.getvalue(), sorted({"dataclasses", "inspect"} & set(sys.modules))]))
"""


@pytest.mark.parametrize(
    "name", sorted(set(GOLDEN_CASES) - {"quartic_verify"}) + ["usage_error", "orders_file", "orders_file_json"]
)
def test_commands_other_than_quartic_verify_load_no_dataclasses(tmp_path, name):
    # their results are records, and dataclasses would load inspect, ast and dis
    if name.startswith("orders_file"):
        batch = write_batch(tmp_path / "strata.txt", BATCH_SPECIALS)
        argv = ["classify", "--orders-file", str(batch)] + (["--json"] if name.endswith("json") else [])
    else:
        argv = GOLDEN_CASES.get(name, ["classify", "--k", "3"])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == (2 if name == "usage_error" else 0)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", RECORD_PROBE, *argv], capture_output=True, text=True, env=env, check=True
    )
    assert done.stderr == err.getvalue()
    assert json.loads(done.stdout) == [code, out.getvalue(), []]


# -- classify --orders-file ---------------------------------------------------

# One stratum per descriptor kind, empty reason and note the classifier has.
BATCH_SPECIALS = [
    (3, 2, (6,)),  # generic
    (5, 2, (10,)),  # arf
    (1, 3, (6, -1, -1)),  # relative_arf
    (1, 3, (8, -2, -1, -1)),  # generic: an even pole beside the two simple ones
    (1, 4, (10, -1, -1, -1, -1)),  # generic: four simple poles
    (3, 3, (12,)),  # cubic_sporadic
    (3, 1, (6, -6)),  # genus_one
    (1, 0, (1, -3)),  # genus-zero note
    (2, 0, (2, -6)),  # Imprimitive
    (1, 2, (2,)),  # NoPrimitiveNonhyperelliptic
    (1, 1, (1, -1)),  # NoPrimitiveNonhyperelliptic in genus one
    (1, 2, (3, -1)),  # EmptyStratum
]


def seeded_signatures(rng, count):
    """Valid signatures with nonzero orders: k 1-8, genus 0-4, 1-6 entries."""
    out = []
    while len(out) < count:
        k, genus = rng.randint(1, 8), rng.randint(0, 4)
        orders = [rng.randint(-2 * k, 3 * k) for _ in range(rng.randint(0, 5))]
        orders.append(k * (2 * genus - 2) - sum(orders))
        if 0 not in orders and abs(orders[-1]) <= 6 * k:
            out.append((k, genus, tuple(orders)))
    return out


def canonical(signature):
    """The canonical triple (k, genus, orders) of a signature given as a triple."""
    sig = validate(*signature)
    return sig.k, sig.genus, sig.orders


def signature_line(k, genus, orders):
    return f"k:{k} g:{genus} orders:({','.join(map(str, orders))})"


def write_batch(path, signatures):
    path.write_text("".join(signature_line(*s) + "\n" for s in signatures), encoding="utf-8")
    return path


def test_batch_output_equals_the_single_calls(tmp_path):
    rng = random.Random(16)
    pool = BATCH_SPECIALS + seeded_signatures(rng, 150)
    entries = [rng.choice(pool) for _ in range(400)] + BATCH_SPECIALS
    rng.shuffle(entries)
    lines, singles = ["# a sweep with repeats", ""], []
    for k, genus, orders in entries:
        orders = list(orders)
        rng.shuffle(orders)
        line = signature_line(k, genus, orders)
        lines.append(line if rng.random() < 0.8 else f"  {line.replace(':', ': ')}  ")
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "# comment", "   "]))
        singles.append(["classify", "--k", str(k), "--genus", str(genus), "--orders", ",".join(map(str, orders))])
    batch = tmp_path / "strata.txt"
    batch.write_text("\n".join(lines) + "\n", encoding="utf-8")

    expected = {"human": "", "json": []}
    for argv in singles:
        expected["human"] += run_cli(argv)[1]
        expected["json"].append(json.loads(run_cli([*argv, "--json"])[1]))
    assert run_cli(["classify", "--orders-file", str(batch)]) == (0, expected["human"], "")
    assert run_cli(["classify", "--orders-file", str(batch), "--json"]) == (
        0, json.dumps({"reports": expected["json"]}, indent=2, sort_keys=True) + "\n", "",
    )
    kinds = {c["type"] for r in expected["json"] for c in r["components"]}
    assert kinds == {"generic", "arf", "relative_arf", "cubic_sporadic", "genus_one"}
    assert {r.get("empty_reason") for r in expected["json"]} == {
        None, "Imprimitive", "NoPrimitiveNonhyperelliptic", "EmptyStratum",
    }


@pytest.mark.parametrize("lines", [1, 7, None])  # a lone line, a short batch, every line
def test_batch_json_equals_one_encoder_run_over_every_line(tmp_path, lines):
    from kstrata import classifier

    signatures = seeded_signatures(random.Random(7), 2500) + genus_one_sweep(1100)
    signatures += [(k, g, orders[::-1]) for k, g, orders in signatures[:500]]
    signatures = signatures[:lines]
    batch = write_batch(tmp_path / "strata.txt", signatures)
    reports = [classifier.primitive_nonhyperelliptic_components(validate(*s)) for s in signatures]
    if lines is None:
        assert len({classifier.report_body(*canonical(s)) for s in signatures}) > 1000
    expected = json.dumps({"reports": [cli._to_json(r) for r in reports]}, indent=2, sort_keys=True)
    assert run_cli(["classify", "--orders-file", str(batch), "--json"]) == (0, expected + "\n", "")


def test_empty_batch(tmp_path):
    batch = tmp_path / "strata.txt"
    batch.write_text("# nothing to classify\n\n", encoding="utf-8")
    assert run_cli(["classify", "--orders-file", str(batch)]) == (0, "", "")
    assert run_cli(["classify", "--orders-file", str(batch), "--json"]) == (0, '{\n  "reports": []\n}\n', "")


@pytest.mark.parametrize("body", ["2,", ",2", "1,,1"])
def test_batch_rejects_a_malformed_orders_list(tmp_path, body):
    batch = tmp_path / "strata.txt"
    batch.write_text(f"k:5 g:2 orders:(10)\nk:1 g:2 orders:({body})\n", encoding="utf-8")
    for mode in ([], ["--json"]):
        assert run_cli(["classify", "--orders-file", str(batch), *mode]) == (
            2, "", f"error: unparseable signature: 'k:1 g:2 orders:({body})'\n",
        )


def both_readings(batch, text):
    """(exit, stdout) of classify with the orders list ``text`` as --orders and in a file.

    k is 1 and the genus is the one whose order sum the list meets, when
    ``int`` reads every entry, so a list both readers take is classified.
    """
    try:
        total = sum(int(part) for part in text.split(","))
    except ValueError:
        total = 0
    genus = max(total, -2) // 2 + 1
    single = run_cli(["classify", "--k", "1", "--genus", str(genus), f"--orders={text}"])
    batch.write_text(f"k:1 g:{genus} orders:({text})\n", encoding="utf-8")
    in_file = run_cli(["classify", "--orders-file", str(batch)])
    return single[:2], in_file[:2]


@pytest.mark.parametrize(
    "text, code", [("1_1,-9", 0), ("+2", 0), ("2,", 2), ("-", 2), ("2-", 2), ("1 1", 2)]
)
def test_an_orders_list_reads_alike_as_an_option_and_in_a_file(tmp_path, text, code):
    single, in_file = both_readings(tmp_path / "strata.txt", text)
    assert single == in_file
    assert single[0] == code


def test_any_orders_list_reads_alike_as_an_option_and_in_a_file(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.text("0123456789-+_, ", max_size=12))
    def agree(text):
        single, in_file = both_readings(tmp_path / "strata.txt", text)
        assert single == in_file
        assert single[0] in (0, 2)

    agree()


def test_batch_with_a_bad_last_line_writes_nothing(tmp_path):
    signatures = seeded_signatures(random.Random(2000), 2000)
    batch = write_batch(tmp_path / "strata.txt", signatures)
    with batch.open("a", encoding="utf-8") as handle:
        handle.write("k:3 g:2 orders:(5)\n")
    for mode in ([], ["--json"]):
        code, out, err = run_cli(["classify", "--orders-file", str(batch), *mode])
        assert (code, out) == (2, "")
        assert err == "error: orders (5,) sum to 5, expected k(2g-2) = 6\n"


def test_batch_classifies_each_distinct_stratum_once_per_call(tmp_path, monkeypatch):
    from kstrata import classifier

    seen = collections.Counter()
    classify = classifier.report_body

    def counting(k, genus, orders):
        seen[k, genus, orders] += 1
        return classify(k, genus, orders)

    monkeypatch.setattr(classifier, "report_body", counting)
    signatures = seeded_signatures(random.Random(3), 300)
    signatures += [(k, g, orders[::-1]) for k, g, orders in signatures[:100]]
    batch = write_batch(tmp_path / "strata.txt", signatures)
    distinct = {canonical(s) for s in signatures}
    assert len(distinct) < len(signatures)
    for calls in (1, 2):
        assert run_cli(["classify", "--orders-file", str(batch), "--json"])[0] == 0
        assert seen == {triple: calls for triple in distinct}


def test_batch_json_peak_memory_stays_near_its_output(tmp_path):
    batch = write_batch(tmp_path / "strata.txt", seeded_signatures(random.Random(5), 5000))
    out = io.StringIO()
    tracemalloc.start()
    try:
        with redirect_stdout(out):
            assert cli.main(["classify", "--orders-file", str(batch), "--json"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = len(out.getvalue())
    # the output string, its copy in the StringIO and one text per distinct
    # stratum; a whole-payload tree and encoder chunk list is ~13x
    assert peak < 8 * size, f"peak {peak} bytes for {size} bytes of output"


def test_batch_rejects_an_integer_past_the_digit_limit(tmp_path):
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("this interpreter converts integers of any length")
    line = f"k:{'9' * (limit + 1)} g:1 orders:()"
    batch = tmp_path / "strata.txt"
    batch.write_text(f"k:5 g:2 orders:(10)\n{line}\n", encoding="utf-8")
    for mode in ([], ["--json"]):
        assert run_cli(["classify", "--orders-file", str(batch), *mode]) == (
            2, "", f"error: unparseable signature: {line!r}\n",
        )


def test_batch_parses_each_distinct_line_text_once_per_call(tmp_path, monkeypatch):
    seen = collections.Counter()
    parse = cli.parse_triple

    def counting(text):
        seen[text] += 1
        return parse(text)

    monkeypatch.setattr(cli, "parse_triple", counting)
    signatures = seeded_signatures(random.Random(4), 300)
    lines = [signature_line(*s) for s in signatures]
    # the same texts padded, and the same strata written another way
    lines += [f"  {line}\t" for line in lines[:100]]
    lines += [signature_line(k, g, orders[::-1]) for k, g, orders in signatures[:100]]
    batch = tmp_path / "strata.txt"
    batch.write_text("\n".join(lines) + "\n", encoding="utf-8")
    texts = {line.strip() for line in lines}
    assert len(texts) < len(lines)
    for calls, mode in ((1, ["--json"]), (2, [])):
        assert run_cli(["classify", "--orders-file", str(batch), *mode])[0] == 0
        assert seen == {text: calls for text in texts}


def genus_one_sweep(count):
    """k:1 g:1 orders:(2d,3d,-5d): each d has its own rotations, so its own report body."""
    return [(1, 1, (2 * d, 3 * d, -5 * d)) for d in range(1, count + 1)]


def test_genus_one_sweep_equals_the_single_calls(tmp_path):
    from kstrata import classifier

    signatures = genus_one_sweep(60)
    signatures += [(k, g, orders[::-1]) for k, g, orders in signatures[::5]] + signatures[:10]
    batch = write_batch(tmp_path / "strata.txt", signatures)
    reports = [classifier.primitive_nonhyperelliptic_components(validate(*s)) for s in signatures]
    assert len({classifier.report_body(*canonical(s)) for s in signatures}) == 60  # one body per d
    singles = {}
    for k, genus, orders in set(signatures):
        argv = ["classify", "--k", str(k), "--genus", str(genus), "--orders", ",".join(map(str, orders))]
        singles[k, genus, orders] = run_cli(argv)[1], json.loads(run_cli([*argv, "--json"])[1])
    human = "".join(singles[s][0] for s in signatures)
    assert run_cli(["classify", "--orders-file", str(batch)]) == (0, human, "")
    payload = json.dumps({"reports": [singles[s][1] for s in signatures]}, indent=2, sort_keys=True)
    assert payload == json.dumps({"reports": [cli._to_json(r) for r in reports]}, indent=2, sort_keys=True)
    assert run_cli(["classify", "--orders-file", str(batch), "--json"]) == (0, payload + "\n", "")


def test_body_key_is_every_report_field_but_the_signature():
    # the batch keys and renders report bodies, so a body must hold every
    # field of a report but the signature, in the order of the fields
    from kstrata import classifier

    for triple in BATCH_SPECIALS:
        sig = validate(*triple)
        report = classifier.primitive_nonhyperelliptic_components(sig)
        names = list(vars(report))
        assert names == ["signature", "count", "components", "empty_reason", "note"]
        body = classifier.report_body(sig.k, sig.genus, sig.orders)
        assert tuple(getattr(report, name) for name in names[1:]) == body
        assert report == classifier.ComponentReport(sig, *body)


def test_batch_json_refuses_a_body_that_holds_the_blank_signature(tmp_path, monkeypatch):
    from kstrata import classifier

    classify = classifier.report_body
    monkeypatch.setattr(
        classifier, "report_body", lambda *triple: (*classify(*triple)[:3], cli._BLANK),
    )
    batch = write_batch(tmp_path / "strata.txt", BATCH_SPECIALS)
    code, out, err = run_cli(["classify", "--orders-file", str(batch), "--json"])
    assert (code, out) == (1, "")
    assert err.startswith("internal error: RuntimeError(") and "2 times" in err


def test_genus_one_with_no_orders_is_refused_everywhere(tmp_path):
    # every order of (k:1 g:1 orders:()) is zero, vacuously; not an empty stratum
    error = "error: all orders are zero: no differential is prescribed\n"
    batch = tmp_path / "strata.txt"
    batch.write_text("k:5 g:2 orders:(10)\nk:1 g:1 orders:()\n", encoding="utf-8")
    for mode in ([], ["--json"]):
        assert run_cli(["classify", "--k", "1", "--genus", "1", "--orders", "", *mode]) == (2, "", error)
        assert run_cli(["genus1", "--k", "1", "--orders", "", *mode]) == (2, "", error)
        assert run_cli(["classify", "--orders-file", str(batch), *mode]) == (2, "", error)


@pytest.fixture(scope="module")
def small_strata():
    """Every canonical stratum with k <= 6, genus <= 4 and 1-4 nonzero orders |o| <= 6k."""
    out = []
    for k in range(1, 7):
        values = [v for v in range(6 * k, -6 * k - 1, -1) if v]
        for genus in range(5):
            target = k * (2 * genus - 2)
            for n in range(4):
                # n descending entries, then the last one is what the sum leaves
                for head in itertools.combinations_with_replacement(values, n):
                    last = target - sum(head)
                    if last and -6 * k <= last <= (head[-1] if head else 6 * k):
                        out.append((k, genus, (*head, last)))
    assert len(out) == 109139
    return out


@pytest.fixture(scope="module")
def small_batch(small_strata, tmp_path_factory):
    """The small strata as a batch file, orders shuffled, with their reports."""
    from kstrata import classifier

    rng = random.Random(24)
    shuffled = [(k, genus, rng.sample(orders, len(orders))) for k, genus, orders in small_strata]
    batch = write_batch(tmp_path_factory.mktemp("small") / "strata.txt", shuffled)
    reports = [classifier.primitive_nonhyperelliptic_components(validate(*s)) for s in small_strata]
    return shuffled, batch, reports


def classify_argv(k, genus, orders):
    return ["classify", "--k", str(k), "--genus", str(genus), "--orders", ",".join(map(str, orders))]


@pytest.mark.parametrize("mode", ["human", "json"])
def test_batch_equals_the_single_calls_on_every_small_stratum(small_batch, mode):
    shuffled, batch, reports = small_batch
    flag = ["--json"] if mode == "json" else []
    if mode == "json":
        def single(report):
            return cli._json_text(report) + "\n"

        # the batch writes a signature's JSON string as its text in quotes
        texts = [str(r.signature) for r in reports]
        assert [json.dumps(text) for text in texts] == [f'"{text}"' for text in texts]
        payload = json.dumps({"reports": [cli._to_json(r) for r in reports]}, indent=2, sort_keys=True)
        expected = payload + "\n"  # the single calls' texts, nested in one list
    else:
        def single(report):
            return cli._lines_text(cli._report_lines(report))

        expected = "".join(map(single, reports))
    # a single call renders its report so, as real calls on a sample show
    for i in random.Random(mode).sample(range(len(reports)), 100):
        assert run_cli([*classify_argv(*shuffled[i]), *flag]) == (0, single(reports[i]), "")
    assert run_cli(["classify", "--orders-file", str(batch), *flag]) == (0, expected, "")


BAD_LINES = [
    (2, 1, (2, 0, -2)),  # a marked point
    (3, 2, (5,)),  # the orders miss k(2g-2)
    (0, 1, ()),
    (-2, 1, (2, -2)),
    (1, -1, (-4,)),
    (1, 1, ()),  # genus one with no orders
]


@pytest.mark.parametrize("seed", range(6))
def test_batch_stops_at_its_first_bad_line_as_the_single_call_does(tmp_path, small_strata, seed):
    rng = random.Random(seed)
    lines = rng.sample(small_strata, 300) + rng.sample(BAD_LINES, rng.randint(1, len(BAD_LINES)))
    rng.shuffle(lines)
    first = next(line for line in lines if line in BAD_LINES)
    batch = write_batch(tmp_path / "strata.txt", lines)
    for flag in ([], ["--json"]):
        code, out, err = run_cli([*classify_argv(*first), *flag])
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert run_cli(["classify", "--orders-file", str(batch), *flag]) == (2, "", err)
