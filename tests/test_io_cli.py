import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beliefcheck
from beliefcheck import (
    Dist,
    FormatError,
    Observation,
    WeightedPosteriors,
    construct_rationalization,
    load_model,
    load_observation,
    save_model,
    save_observation,
    verify_model,
)
from beliefcheck.cli import main
from beliefcheck.io import _DECIMAL, _EXPONENT, parse_number

S2 = ("H", "L")


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


WORKED_RAW = {
    "mode": "rational",
    "states": ["H", "L"],
    "prior": {"H": "1/2", "L": "1/2"},
    "posteriors": [
        {"weight": "1/4", "belief": {"H": "0.8", "L": "0.2"}},
        {"weight": "3/4", "belief": {"H": "1", "L": "0"}},
    ],
}


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize(
    "text",
    ["007/12", "0/5", "1/0", "+1/2", "-1/2", " 1/2", "1_0/3", "\u0663/4", "12"],
)
def test_parse_number_agrees_with_fraction(text, mode):
    """parse_number reads "p/q" and "p" in ASCII digits through int; every
    string must parse, or fail, exactly as Fraction(text) does."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(FormatError) as err:
            parse_number(text, mode, "prior.H")
        assert str(err.value) == (
            "prior.H: %r is not a valid number (use 'p/q' or a decimal)" % text
        )
        return
    expected = value if mode == "rational" else float(value)
    got = parse_number(text, mode, "prior.H")
    assert got == expected and type(got) is type(expected)


# The number patterns written with a run of digits split two ways: the
# same matches, in time quadratic in the length of the run.
SPLIT_EXPONENT = re.compile(r"e[-+]?[0_]*([\d_]*)\s*\Z", re.I)
SPLIT_DECIMAL = re.compile(
    r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?\Z", re.I | re.A
)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            ["0", "1", "7", "00", "_", "e", "E", "-", "+", ".", " ", "\n",
             "\u0663", "\u0660", "x"]
        ),
        max_size=10,
    ).map("".join)
)
def test_number_patterns_match_as_their_split_forms(text):
    for linear, split, find in (
        (_EXPONENT, SPLIT_EXPONENT, re.Pattern.search),
        (_DECIMAL, SPLIT_DECIMAL, re.Pattern.match),
    ):
        got, expected = find(linear, text), find(split, text)
        assert (got and (got.span(), got.groups())) == (
            expected and (expected.span(), expected.groups())
        )


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize(
    "text",
    ["1" * 100_000 + "x", "1." + "1" * 100_000 + "x", "e" + "0" * 100_000 + "x"],
)
def test_long_number_strings_are_refused_in_linear_time(text, mode):
    # A pattern that can split a run of digits two ways backtracks in time
    # quadratic in the run: about 10 s for 20,000 digits.
    start = time.perf_counter()
    with pytest.raises(FormatError, match="not a valid number"):
        parse_number(text, mode, "prior.H")
    assert time.perf_counter() - start < 2


class TestObservationFiles:
    def test_decimal_strings_parse_exactly_in_rational_mode(self, tmp_path):
        obs, mode = load_observation(write_json(tmp_path / "o.json", WORKED_RAW))
        assert mode == "rational"
        assert obs.posteriors.beliefs[0]["H"] == Fraction(4, 5)

    def test_round_trip(self, tmp_path, worked_example):
        path = tmp_path / "o.json"
        save_observation(worked_example, path)
        loaded, mode = load_observation(path)
        assert loaded == worked_example
        assert mode == "rational"

    def test_float_mode(self, tmp_path):
        raw = dict(WORKED_RAW, mode="float")
        obs, mode = load_observation(write_json(tmp_path / "o.json", raw))
        assert mode == "float"
        assert obs.prior["H"] == pytest.approx(0.5)
        assert not obs.is_exact

    def test_bad_sum_names_the_field(self, tmp_path):
        raw = dict(WORKED_RAW, prior={"H": "1/2", "L": "2/5"})
        with pytest.raises(FormatError) as err:
            load_observation(write_json(tmp_path / "o.json", raw))
        assert "prior" in str(err.value)

    def test_unknown_state_label(self, tmp_path):
        raw = dict(WORKED_RAW, prior={"H": "1/2", "X": "1/2"})
        with pytest.raises(FormatError) as err:
            load_observation(write_json(tmp_path / "o.json", raw))
        assert "X" in str(err.value)

    def test_bad_number_string(self, tmp_path):
        raw = dict(WORKED_RAW, prior={"H": "one half", "L": "1/2"})
        with pytest.raises(FormatError):
            load_observation(write_json(tmp_path / "o.json", raw))

    def test_exponent_beyond_the_cap_names_the_field(self):
        # Fraction("1e5000") would build a 5000-digit integer
        assert parse_number("1e4300", "rational", "prior.H") == 10**4300
        for raw in ("1e5000", "1E-4301", "2.5e" + "9" * 5000):
            with pytest.raises(FormatError, match="prior.H"):
                parse_number(raw, "rational", "prior.H")

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "o.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(FormatError) as err:
            load_observation(path)
        assert "line 2" in str(err.value)


class TestModelFiles:
    def test_round_trip(self, tmp_path, worked_example):
        model = construct_rationalization(worked_example)
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded, mode = load_model(path)
        assert mode == "rational"
        assert loaded == model

    def test_partition_mismatch_rejected(self, tmp_path, worked_example):
        model = construct_rationalization(worked_example)
        path = tmp_path / "m.json"
        save_model(model, path)
        data = json.loads(path.read_text())
        data["partition"]["nu0+"], data["partition"]["nu1+"] = (
            data["partition"]["nu1+"],
            data["partition"]["nu0+"],
        )
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError):
            load_model(path)

    @pytest.mark.parametrize("index", [0.0, True])
    def test_partition_indices_must_be_integers(
        self, tmp_path, capsys, worked_example, index
    ):
        # [0.0, true] == [0, 1] in Python, but the file's indices into
        # omega must be JSON integers.
        path = tmp_path / "m.json"
        save_model(construct_rationalization(worked_example), path)
        data = json.loads(path.read_text())
        cell = data["partition"]["nu0+"]
        cell[cell.index(int(index))] = index
        path.write_text(json.dumps(data))
        message = (
            "%s: field 'partition' must list integer indices into 'omega'"
            % path
        )
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value) == message
        obs = tmp_path / "o.json"
        save_observation(worked_example, obs)
        assert main(["verify", str(path), str(obs)]) == 1
        assert capsys.readouterr().err == "error: %s\n" % message

    def test_non_list_partition_cell_is_a_format_error(
        self, tmp_path, worked_example
    ):
        path = tmp_path / "m.json"
        save_model(construct_rationalization(worked_example), path)
        data = json.loads(path.read_text())
        data["partition"]["nu0+"] = 0
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert "partition" in str(err.value)


def run_cli(*argv):
    """Run the CLI in a fresh interpreter, so an uncaught exception shows up
    as a traceback on stderr."""
    src = str(Path(beliefcheck.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "beliefcheck.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


class TestCliMalformedInput:
    def test_float_overflow_is_a_format_error(self, tmp_path):
        raw = dict(WORKED_RAW, mode="float", prior={"H": "1e400", "L": "0"})
        proc = run_cli("check", write_json(tmp_path / "o.json", raw))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "prior.H" in proc.stderr

    def test_non_string_omega_label_is_a_format_error(
        self, tmp_path, worked_example
    ):
        path = tmp_path / "m.json"
        save_model(construct_rationalization(worked_example), path)
        data = json.loads(path.read_text())
        data["omega"][0]["label"] = ["H", "nu0+"]
        path.write_text(json.dumps(data))
        obs = tmp_path / "o.json"
        save_observation(worked_example, obs)
        proc = run_cli("verify", str(path), str(obs))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "omega[0]" in proc.stderr and "'label'" in proc.stderr

    def test_weight_below_the_zero_threshold_is_rejected(self, tmp_path):
        raw = dict(WORKED_RAW, mode="float")
        raw["posteriors"] = [
            dict(WORKED_RAW["posteriors"][0], weight="1e-12"),
            dict(WORKED_RAW["posteriors"][1], weight="1"),
        ]
        proc = run_cli("rationalize", write_json(tmp_path / "o.json", raw))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1

    def test_negative_seed_is_rejected(self, tmp_path):
        obs = write_json(tmp_path / "o.json", WORKED_RAW)
        model = str(tmp_path / "m.json")
        assert main(["rationalize", obs, "--out", model]) == 0
        proc = run_cli("simulate", model, "--n", "10", "--seed", "-1")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "seed" in proc.stderr


    def test_oversized_json_integer_is_a_format_error(self, tmp_path):
        # json.load refuses an integer literal beyond Python's 4300-digit
        # limit with a plain ValueError, not a JSONDecodeError
        path = tmp_path / "o.json"
        text = json.dumps(dict(WORKED_RAW, prior={"H": 0, "L": "1/2"}))
        path.write_text(text.replace('"H": 0', '"H": 1' + "0" * 4999))
        proc = run_cli("check", str(path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert str(path) in proc.stderr

    def test_non_utf8_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "o.json"
        path.write_bytes(b"\xff\xfe{}")
        proc = run_cli("check", str(path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert str(path) in proc.stderr

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b'{"nu0": 1' + b"0" * 4999 + b', "nu1": 0}', "Exceeds the limit"),
            (b"\xff\xfe{}", "can't decode byte 0xff"),
        ],
        ids=["oversized-integer", "not-utf-8"],
    )
    def test_unreadable_lambda_file_is_a_format_error(
        self, tmp_path, content, reason
    ):
        obs = write_json(tmp_path / "o.json", WORKED_RAW)
        lam = tmp_path / "lam.json"
        lam.write_bytes(content)
        proc = run_cli("rationalize", obs, "--lambda", str(lam))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: %s: unreadable JSON: " % lam)
        assert reason in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "weights, message, code",
        [
            (
                {"nu0": "4/3", "nu1": "-1/3"},
                "negative weight -1/3 at outcome 'nu1'",
                1,
            ),
            ({"nu0": "1/2", "nu1": "1/3"}, "weights sum to 5/6, expected 1", 1),
            (
                {"nu0": "1"},
                "lambda file must give a weight for each of: nu0, nu1",
                2,
            ),
        ],
        ids=["negative", "sum", "labels"],
    )
    def test_lambda_file_errors_name_the_file(
        self, tmp_path, weights, message, code
    ):
        obs = write_json(tmp_path / "o.json", WORKED_RAW)
        lam = write_json(tmp_path / "lam.json", weights)
        proc = run_cli("rationalize", obs, "--lambda", lam)
        assert proc.returncode == code
        assert proc.stderr == "error: %s: %s\n" % (lam, message)

    def test_workers_flag_is_refused(self, tmp_path):
        obs = write_json(tmp_path / "o.json", WORKED_RAW)
        model = str(tmp_path / "m.json")
        assert main(["rationalize", obs, "--out", model]) == 0
        proc = run_cli(
            "simulate", model, "--n", "10", "--seed", "1", "--workers", "2"
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "error: unrecognized arguments: --workers 2" in proc.stderr

    def test_panel_above_the_agent_cap_is_rejected(self, tmp_path):
        obs = write_json(tmp_path / "o.json", WORKED_RAW)
        model = str(tmp_path / "m.json")
        assert main(["rationalize", obs, "--out", model]) == 0
        proc = run_cli("simulate", model, "--n", "10000000000", "--seed", "1")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (
            "error: n_agents must be at most 10000000, got 10000000000\n"
        )


    @pytest.mark.parametrize("command", ["check", "rationalize-lambda"])
    def test_deeply_nested_json_is_a_format_error(self, tmp_path, command):
        # json.load raises RecursionError on nesting this deep
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        if command == "check":
            proc = run_cli("check", str(deep))
        else:
            obs = write_json(tmp_path / "o.json", WORKED_RAW)
            proc = run_cli("rationalize", obs, "--lambda", str(deep))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: %s: unreadable JSON: " % deep)
        assert proc.stderr.count("\n") == 1


def overlapping_observation(k):
    """k distinct 2-state posteriors of full support: every pair overlaps."""
    return {
        "mode": "rational",
        "states": ["H", "L"],
        "prior": {"H": "1/2", "L": "1/2"},
        "posteriors": [
            {
                "weight": "1/%d" % k,
                "belief": {
                    "H": "%d/%d" % (i, k + 1),
                    "L": "%d/%d" % (k + 1 - i, k + 1),
                },
            }
            for i in range(1, k + 1)
        ],
    }


@pytest.mark.parametrize("as_json", [False, True])
def test_known_omega_output_is_linear_in_the_input(tmp_path, capsys, as_json):
    # k(k-1)/2 pairs overlap; one conflict per posterior is reported
    k = 1500
    path = tmp_path / "o.json"
    path.write_text(json.dumps(overlapping_observation(k)))
    argv = ["known-omega", str(path)] + (["--json"] if as_json else [])
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert len(out) <= 2 * path.stat().st_size
    if as_json:
        pairs = json.loads(out)["overlapping_pairs"]
        assert pairs == [
            {"i": 0, "j": j, "shared": ["H"]} for j in range(1, k)
        ]
    else:
        assert "  posteriors 0 and 20 share outcomes 'H'" in out
        assert "posteriors 0 and 21 " not in out
        assert "  \u2026 and %d more\n" % (k - 1 - 20) in out


class TestCliExitCodes:
    def test_check_passes(self, tmp_path):
        path = write_json(tmp_path / "o.json", WORKED_RAW)
        assert main(["check", path]) == 0

    def test_check_fails_on_violation(self, tmp_path):
        raw = {
            "states": ["H", "L"],
            "prior": {"H": "1", "L": "0"},
            "posteriors": [
                {"weight": "1", "belief": {"H": "1/2", "L": "1/2"}}
            ],
        }
        assert main(["check", write_json(tmp_path / "o.json", raw)]) == 2

    def test_check_malformed_input(self, tmp_path):
        raw = dict(WORKED_RAW, prior={"H": "1/2", "L": "2/5"})
        assert main(["check", write_json(tmp_path / "o.json", raw)]) == 1

    def test_missing_file(self):
        assert main(["check", "/no/such/file.json"]) == 1

    def test_usage_error_is_exit_one(self):
        assert main(["check"]) == 1

    def test_rationalize_then_verify(self, tmp_path):
        obs = write_json(tmp_path / "o.json", WORKED_RAW)
        model = str(tmp_path / "m.json")
        assert main(["rationalize", obs, "--out", model]) == 0
        assert main(["verify", model, obs]) == 0

    def test_rationalize_refuses_violation(self, tmp_path):
        raw = {
            "states": ["H", "L"],
            "prior": {"H": "1", "L": "0"},
            "posteriors": [
                {"weight": "1", "belief": {"H": "1/2", "L": "1/2"}}
            ],
        }
        assert main(["rationalize", write_json(tmp_path / "o.json", raw)]) == 2

    def test_rationalize_rejects_partial_lambda(self, tmp_path):
        obs = write_json(tmp_path / "o.json", WORKED_RAW)
        lam = write_json(tmp_path / "lam.json", {"nu0": "1", "nu1": "0"})
        assert main(["rationalize", obs, "--lambda", lam]) == 2

    def test_rationalize_prints_worked_tables(self, tmp_path, capsys):
        obs = write_json(tmp_path / "o.json", WORKED_RAW)
        assert main(["rationalize", obs]) == 0
        out = capsys.readouterr().out
        mu_line_h = next(
            line for line in out.splitlines() if line.startswith("H")
        )
        assert mu_line_h.split()[1:] == ["1/4", "1/4", "0", "0"]
        mu_line_l = next(
            line for line in out.splitlines() if line.startswith("L")
        )
        assert mu_line_l.split()[1:] == ["1/16", "0", "3/16", "1/4"]

    def test_known_omega_cites_overlap(self, tmp_path, capsys):
        obs = write_json(tmp_path / "o.json", WORKED_RAW)
        assert main(["known-omega", obs, "--brute-force", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["overlapping_pairs"] == [
            {"i": 0, "j": 1, "shared": ["H"]}
        ]
        assert payload["brute_force"] is False
        assert payload["oracle_agrees"] is True

    def test_known_omega_text_prints_deviations(self, tmp_path, capsys):
        obs = write_json(tmp_path / "o.json", WORKED_RAW)
        assert main(["known-omega", obs]) == 2
        out = capsys.readouterr().out
        # nu0 = (4/5, 1/5) against the prior conditioned on {H, L}
        assert "  posterior 0: worst deviation 3/10" in out
        assert "  posterior 1: worst deviation 0" in out

    def test_martingale_objective_fails(self, tmp_path, capsys):
        obs = write_json(tmp_path / "o.json", WORKED_RAW)
        assert main(["martingale", obs, "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is False
        assert payload["mean_posterior"] == {"H": "19/20", "L": "1/20"}

    def test_martingale_subjective_holds(self, tmp_path):
        obs = write_json(tmp_path / "o.json", WORKED_RAW)
        model = str(tmp_path / "m.json")
        assert main(["rationalize", obs, "--out", model]) == 0
        assert main(
            ["martingale", obs, "--weights", "subjective-from", "--model", model]
        ) == 0

    def test_simulate(self, tmp_path, capsys):
        obs = write_json(tmp_path / "o.json", WORKED_RAW)
        model = str(tmp_path / "m.json")
        assert main(["rationalize", obs, "--out", model]) == 0
        capsys.readouterr()  # drop the rationalize tables
        assert main(
            [
                "simulate", model,
                "--n", "20000",
                "--seed", "3",
                "--threshold", "0.05",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["within_threshold"] is True

    def test_json_output_is_stable(self, tmp_path, capsys):
        obs = write_json(tmp_path / "o.json", WORKED_RAW)
        assert main(["check", obs, "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["check", obs, "--json"]) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["pass"] is True
        assert payload["posteriors"][0]["epsilon"] == "5/8"
        assert payload["posteriors"][1]["epsilon"] == "1/2"
