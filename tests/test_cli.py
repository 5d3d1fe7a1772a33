import json

import numpy as np
import pytest

from pqm import finiteqm as fq
from pqm import poset as ps
from pqm import verify
from pqm.cli import dump_state, load_state, main
from pqm.finiteqm import MOMENTUM, POSITION, random_state, weyl_wigner

RNG = np.random.default_rng(99)


def _write_state(path, n=6, rep=POSITION, seed=1):
    f = random_state(n, np.random.default_rng(seed), rep=rep)
    dump_state(f, str(path))
    return f


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("pqm: error: ") and err.count("\n") == 1
    return err


class TestStateFiles:
    def test_round_trip_bit_identical(self, tmp_path):
        p1 = tmp_path / "f.json"
        p2 = tmp_path / "g.json"
        f = _write_state(p1)
        g = load_state(str(p1))
        dump_state(g, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(f.amplitudes, g.amplitudes)

    def test_metadata_preserved_shape(self, tmp_path):
        p = tmp_path / "f.json"
        dump_state(random_state(3, RNG), str(p), metadata={"seed": 7})
        data = json.loads(p.read_text())
        assert data["metadata"] == {"seed": 7}
        assert data["rep"] == POSITION

    @pytest.mark.parametrize("metadata", [None, {"method": "good", "seed": 7}])
    @pytest.mark.parametrize("rep", [POSITION, MOMENTUM])
    def test_bytes_match_streamed_encoding(self, metadata, rep, tmp_path):
        # the per-amplitude list and streamed json.dump the writer replaced
        f = random_state(33, RNG, rep=rep)
        f.amplitudes[3] = complex(-0.0, 1e-300)
        data = {
            "n": f.n,
            "rep": f.rep,
            "amplitudes": [[z.real, z.imag] for z in f.amplitudes],
        }
        if metadata:
            data["metadata"] = metadata
        old = tmp_path / "old.json"
        with open(old, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
            fh.write("\n")
        new = tmp_path / "new.json"
        dump_state(f, str(new), metadata=metadata)
        assert new.read_bytes() == old.read_bytes()


class TestFourierCommand:
    def test_good_matches_direct(self, tmp_path):
        src = tmp_path / "f.json"
        _write_state(src, n=12)
        out_direct = tmp_path / "d.json"
        out_good = tmp_path / "g.json"
        assert main(["fourier", "--n", "12", "--in", str(src), "--out", str(out_direct)]) == 0
        assert (
            main(
                ["fourier", "--n", "12", "--method", "good", "--in", str(src), "--out", str(out_good)]
            )
            == 0
        )
        a = load_state(str(out_direct)).amplitudes
        b = load_state(str(out_good)).amplitudes
        assert np.max(np.abs(a - b)) < 1e-10

    def test_four_applications_identity(self, tmp_path):
        src = tmp_path / "f0.json"
        f = _write_state(src, n=5)
        cur = src
        for i in range(4):
            nxt = tmp_path / f"f{i + 1}.json"
            assert main(["fourier", "--in", str(cur), "--out", str(nxt)]) == 0
            cur = nxt
        back = load_state(str(cur))
        assert back.rep == POSITION
        assert np.max(np.abs(back.amplitudes - f.amplitudes)) < 1e-10

    def test_bad_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["fourier", "--in", str(bad), "--out", str(tmp_path / "o.json")]) == 2

    def test_dimension_mismatch_exits_2(self, tmp_path):
        src = tmp_path / "f.json"
        _write_state(src, n=6)
        assert main(["fourier", "--n", "7", "--in", str(src), "--out", str(tmp_path / "o.json")]) == 2

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_amplitude_exits_2(self, bad, tmp_path, capsys):
        src = tmp_path / "f.json"
        src.write_text(f'{{"n": 2, "rep": "position", "amplitudes": [[1.0, 0.0], [{bad}, 0.0]]}}')
        out = tmp_path / "o.json"
        assert main(["fourier", "--in", str(src), "--out", str(out)]) == 2
        assert "non-finite" in _one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "n, amplitudes",
        [
            ("2", "[[1" + "0" * 400 + ", 0.0], [0.0, 0.0]]"),  # beyond the float range
            ("2.7", "[[1.0, 0.0], [0.0, 0.0]]"),
            ("2.0", "[[1.0, 0.0], [0.0, 0.0]]"),
            ("true", "[[1.0, 0.0]]"),
            ('"2"', "[[1.0, 0.0], [0.0, 0.0]]"),
            ("2", '[["1", 0.0], [0.0, 0.0]]'),
            ("2", "[[1.0, null], [0.0, 0.0]]"),
            ("2", "[[1.0], [0.0, 0.0]]"),
            ("2", "[[1.0], [0.0]]"),
            ("2", "[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]"),
            ("2", "[[[1.0, 0.0]], [[0.0, 0.0]]]"),
            ("2", "[1.0, 0.0]"),
        ],
        ids=[
            "int_beyond_float", "fractional_n", "float_n", "bool_n", "string_n",
            "string_amplitude", "null_amplitude", "short_pair", "short_pairs",
            "long_pairs", "nested_pairs", "flat_list",
        ],
    )
    def test_malformed_state_exits_2(self, n, amplitudes, tmp_path, capsys):
        src = tmp_path / "f.json"
        src.write_text(f'{{"n": {n}, "rep": "position", "amplitudes": {amplitudes}}}')
        out = tmp_path / "o.json"
        assert main(["fourier", "--in", str(src), "--out", str(out)]) == 2
        assert _one_error_line(capsys).startswith(f"pqm: error: malformed state file {src}: ")
        assert not out.exists()

    def test_integer_and_signed_zero_amplitudes_load_exactly(self, tmp_path):
        src = tmp_path / "f.json"
        src.write_text(
            '{"n": 3, "rep": "position", "amplitudes": [[1' + "0" * 30 + ", -0.0], [-0.0, 2], [0, -1]]}"
        )
        want = np.array([complex(10**30, -0.0), complex(-0.0, 2), complex(0, -1)])
        assert load_state(str(src)).amplitudes.tobytes() == want.tobytes()

    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch):
        # a dense path that cannot allocate reports one line, no traceback
        def out_of_memory(f):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(fq, "fourier", out_of_memory)
        src = tmp_path / "f.json"
        _write_state(src)
        assert main(["fourier", "--in", str(src), "--out", str(tmp_path / "g.json")]) == 2
        assert _one_error_line(capsys).startswith("pqm: error: out of memory")

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        src = tmp_path / "f.json"
        _write_state(src, n=4)
        out = tmp_path / "missing" / "o.json"
        assert main(["fourier", "--in", str(src), "--out", str(out)]) == 2
        _one_error_line(capsys)

    @pytest.mark.parametrize(
        "command", [["fourier"], ["wigner"], ["wigner", "--kind", "weyl"]]
    )
    def test_empty_state_exits_2(self, command, tmp_path, capsys):
        # Z(0) is no system: the transforms would divide by n = 0
        src = tmp_path / "f.json"
        src.write_text('{"n": 0, "rep": "position", "amplitudes": []}')
        out = tmp_path / "o.out"
        assert main([*command, "--in", str(src), "--out", str(out)]) == 2
        assert _one_error_line(capsys) == (
            f"pqm: error: malformed state file {src}: n=0 must be >= 1\n"
        )
        assert not out.exists()


class TestWignerCommand:
    def test_table_matches_oracle(self, tmp_path):
        src = tmp_path / "f.json"
        f = _write_state(src, n=2)
        out = tmp_path / "w.csv"
        assert main(["wigner", "--in", str(src), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "a,b,re,im"
        assert len(lines) == 1 + 2 * 2
        for line in lines[1:]:
            a, b, re, im = line.split(",")
            assert abs(float(im)) <= 1e-12  # Wigner rows are real

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize(
        "flags, kind, doubled",
        [
            (["--kind", "weyl"], "weyl", False),
            (["--kind", "wigner"], "wigner", False),
            (["--doubled"], "wigner", True),
        ],
    )
    def test_every_cell_matches_weyl_wigner(self, n, flags, kind, doubled, tmp_path):
        src = tmp_path / "f.json"
        _write_state(src, n=n, seed=n)
        f = load_state(str(src))
        out = tmp_path / "w.csv"
        assert main(["wigner", *flags, "--in", str(src), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        doubled = doubled and n % 2 == 0
        a_range = 2 * n if doubled else n
        assert lines[0] == "a,b,re,im" and len(lines) == 1 + a_range * n
        for i, line in enumerate(lines[1:]):
            a, b, re, im = line.split(",")
            assert (int(a), int(b)) == divmod(i, n)  # a-major rows
            want = weyl_wigner(f, int(a), int(b), kind, doubled)
            assert abs(complex(float(re), float(im)) - want) <= 1e-12

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        src = tmp_path / "f.json"
        _write_state(src, n=2)
        assert main(["wigner", "--in", str(src), "--out", str(tmp_path / "no" / "w.csv")]) == 2
        _one_error_line(capsys)

    def test_weyl_emits_complex(self, tmp_path):
        src = tmp_path / "f.json"
        _write_state(src, n=3, seed=5)
        out = tmp_path / "w.csv"
        assert main(["wigner", "--kind", "weyl", "--in", str(src), "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert any(abs(float(r.split(",")[3])) > 1e-9 for r in rows)

    def test_doubled_grid_row_count(self, tmp_path):
        src = tmp_path / "f.json"
        _write_state(src, n=4)
        out = tmp_path / "w.csv"
        assert main(["wigner", "--doubled", "--in", str(src), "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 8 * 4

    def test_doubled_flag_ignored_for_weyl(self, tmp_path):
        src = tmp_path / "f.json"
        _write_state(src, n=4)
        out = tmp_path / "w.csv"
        assert (
            main(["wigner", "--kind", "weyl", "--doubled", "--in", str(src), "--out", str(out)])
            == 0
        )
        assert len(out.read_text().strip().splitlines()) == 1 + 4 * 4


class TestDisplaceEmbed:
    def test_displace_writes_state(self, tmp_path):
        src = tmp_path / "f.json"
        f = _write_state(src, n=4)
        out = tmp_path / "g.json"
        assert (
            main(["displace", "--in", str(src), "--alpha", "1", "--beta", "2", "--out", str(out)])
            == 0
        )
        g = load_state(str(out))
        assert abs(np.linalg.norm(g.amplitudes) - np.linalg.norm(f.amplitudes)) < 1e-12

    def test_embed_norm_preserving(self, tmp_path):
        src = tmp_path / "f.json"
        _write_state(src, n=3)
        out = tmp_path / "g.json"
        assert main(["embed", "--from", "3", "--to", "9", "--in", str(src), "--out", str(out)]) == 0
        g = load_state(str(out))
        assert g.n == 9

    def test_embed_divisibility_error(self, tmp_path):
        src = tmp_path / "f.json"
        _write_state(src, n=3)
        assert (
            main(["embed", "--from", "3", "--to", "8", "--in", str(src), "--out", str(tmp_path / "g.json")])
            == 2
        )

    @pytest.mark.parametrize("dst", ["0", "-4"])
    def test_embed_rejects_target_below_source(self, dst, tmp_path, capsys):
        # 0 and -4 are multiples of 2, but no system Z(2) embeds into
        src = tmp_path / "f.json"
        _write_state(src, n=2)
        out = tmp_path / "g.json"
        assert main(["embed", "--from", "2", "--to", dst, "--in", str(src), "--out", str(out)]) == 2
        assert _one_error_line(capsys) == (
            f"pqm: error: target label {dst} is smaller than the source 2\n"
        )
        assert not out.exists()


class TestPosetPadicCommands:
    def test_width_36(self, capsys):
        assert main(["poset", "--n", "36", "width"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"n": 36, "width": 3}

    def test_topology_12(self, capsys):
        assert main(["poset", "--n", "12", "topology"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["T0"] is True and out["T1"] is False
        m, x = out["T1_witness"]
        assert x % m == 0 and m != x

    def test_partition_covers(self, capsys):
        assert main(["poset", "--n", "12", "partition"]) == 0
        out = json.loads(capsys.readouterr().out)
        covered = sorted(x for c in out["chain_partition"] for x in c)
        assert covered == [2, 3, 4, 6, 12]

    def test_closed_form_at_large_n(self, capsys):
        # 6719 divisors, answered from the factorization with no order graph
        n = 963761198400
        assert main(["poset", "--n", str(n), "width"]) == 0
        assert json.loads(capsys.readouterr().out) == {"n": n, "width": 882}
        assert main(["poset", "--n", str(n), "length"]) == 0
        assert json.loads(capsys.readouterr().out) == {"n": n, "length": 18}

    @pytest.mark.parametrize("query", ["width", "partition", "antichain", "topology"])
    def test_size_bound_before_divisors(self, query, capsys):
        # 2*3*5*...*59 has 2^17 - 1 = 131071 divisors above 1; the check
        # on the factorization refuses it before any divisor list is built
        n = 1
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
            n *= p
        assert main(["poset", "--n", str(n), query]) == 2
        assert "poset size 131071 exceeds bound 10000" in _one_error_line(capsys)

    def test_basis_lists_only_the_element_divisors(self, monkeypatch, capsys):
        # U(x) = N(x): n = 2*3*...*67 has 2^19 divisors, none of them needed
        n = 7858321551080267055879090
        seen = []
        divisor_poset = ps.divisor_poset

        def spy(m, *args, **kwargs):
            seen.append(m)
            return divisor_poset(m, *args, **kwargs)

        monkeypatch.setattr(ps, "divisor_poset", spy)
        assert main(["poset", "--n", str(n), "basis", "--element", "6"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"n": n, "element": 6, "open_set": [2, 3, 6]}
        assert seen == [6]

    def test_basis_matches_basis_open(self, capsys):
        for n in (2, 12, 36, 60, 97, 360):
            p = ps.divisor_poset(n)
            for x in p.elements:
                assert main(["poset", "--n", str(n), "basis", "--element", str(x)]) == 0
                out = json.loads(capsys.readouterr().out)
                assert out["open_set"] == sorted(ps.basis_open(p, x))

    @pytest.mark.parametrize(
        "n, element, message",
        [
            (1, None, "n must be >= 2"),
            (-2, 0, "n must be >= 2"),
            (12, None, "basis query needs --element"),
            (12, 0, "0 is not a divisor (> 1) of 12"),
            (12, 1, "1 is not a divisor (> 1) of 12"),
            (12, -6, "-6 is not a divisor (> 1) of 12"),
            (12, 5, "5 is not a divisor (> 1) of 12"),
            (12, 24, "24 is not a divisor (> 1) of 12"),
        ],
    )
    def test_basis_errors_in_order(self, n, element, message, capsys):
        argv = ["poset", "--n", str(n), "basis"]
        if element is not None:
            argv += ["--element", str(element)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pqm: error: {message}\n"

    def test_crt(self, capsys):
        assert main(["padic", "crt", "--n", "12", "--mu", "7"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["components"] == [3, 1]

    def test_ord(self, capsys):
        assert main(["padic", "ord", "--p", "2", "--value", "12"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ord"] == 2 and out["abs"] == "1/4"

    @pytest.mark.parametrize("p", ["1", "0", "4", "-3"])
    def test_ord_rejects_non_prime(self, p, capsys):
        assert main(["padic", "ord", "--p", p, "--value", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pqm: error: {p} is not prime\n"

    @pytest.mark.parametrize("p", ["1", "0", "4", "-3"])
    def test_expand_rejects_non_prime(self, p, capsys):
        assert main(["padic", "expand", "--p", p, "--value", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pqm: error: {p} is not prime\n"

    @pytest.mark.parametrize("precision", ["-1", "-5"])
    def test_expand_rejects_negative_precision(self, precision, capsys):
        assert main(
            ["padic", "expand", "--p", "3", "--value", "1/2", "--precision", precision]
        ) == 2
        assert capsys.readouterr().err == "pqm: error: precision must be >= 1\n"

    def test_expand_minus_one(self, capsys):
        assert main(["padic", "expand", "--p", "3", "--value", "-1", "--precision", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["digits"] == [2, 2, 2, 2]

    def test_negative_value_in_either_form(self, capsys):
        # argparse alone reads "-7/5" after --value as an option
        assert main(["padic", "ord", "--p", "2", "--value", "-7/5"]) == 0
        spaced = capsys.readouterr().out
        assert main(["padic", "ord", "--p", "2", "--value=-7/5"]) == 0
        assert capsys.readouterr().out == spaced
        assert json.loads(spaced) == {"abs": "1", "ord": 0, "p": 2, "value": "-7/5"}

    def test_bare_trailing_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["padic", "ord", "--p", "2", "--value"])
        assert exc.value.code == 2
        assert "--value: expected one argument" in capsys.readouterr().err

    def test_ostrowski(self, capsys):
        assert main(["padic", "ostrowski", "--value", "3/4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["product"] == "1"

    def test_decompose(self, capsys):
        assert main(["padic", "decompose", "--value", "5/6"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["parts"] == {"2": "1/2", "3": "1/3"}

    def test_length_query(self, capsys):
        assert main(["poset", "--n", "36", "length"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"n": 36, "length": 4}

    def test_expand_rejects_non_integral(self, capsys):
        assert main(["padic", "expand", "--p", "3", "--value", "1/3"]) == 2

    def test_missing_argument_exits_2(self, capsys):
        assert main(["padic", "crt", "--n", "12"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["padic", "ord", "--p", "4", "--value", "3"], "4 is not prime"),
            (["padic", "expand", "--p", "3", "--value", "1/3"], "1/3 is not a 3-adic integer"),
            (
                ["padic", "expand", "--p", "3", "--value", "2", "--precision", "0"],
                "precision must be >= 1",
            ),
            (["padic", "ostrowski", "--value", "0"], "q must be nonzero"),
        ],
    )
    def test_library_errors_print_one_line(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pqm: error: {message}\n"

    def test_embed_error_prints_one_line(self, tmp_path, capsys):
        src = tmp_path / "f.json"
        _write_state(src, n=2)
        argv = ["embed", "--from", "2", "--to", "9", "--in", str(src), "--out", str(tmp_path / "g.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "pqm: error: 2 does not divide 9\n"


class TestVerifyCommand:
    def test_single_suite_passes(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        code = main(
            [
                "verify",
                "--suite",
                "numbers",
                "--suite",
                "poset",
                "--poset-limit",
                "300",
                "--json",
                str(report),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out
        data = json.loads(report.read_text())
        assert data["passed"] is True
        assert {c["suite"] for c in data["checks"]} == {"numbers", "poset"}

    def test_overtight_tolerance_fails(self, capsys):
        code = main(
            ["verify", "--suite", "fourier", "--samples", "2", "--tolerance", "1e-20"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "pqm.cfg"
        cfg.write_text("samples = 2\nseed = 3\nposet_limit = 100\n# comment\n")
        code = main(["verify", "--suite", "poset", "--config", str(cfg)])
        assert code == 0

    def test_even_n_exploratory_flag_and_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "pqm.cfg"
        cfg.write_text("even_n_exploratory = yes\n")
        for i, extra in enumerate((["--even-n-exploratory"], ["--config", str(cfg)])):
            report = tmp_path / f"r{i}.json"
            assert main(["verify", "--suite", "parity", *extra, "--json", str(report)]) == 0
            out = capsys.readouterr().out
            assert out.count("[PASS]") == 5 and "[FAIL]" not in out
            assert json.loads(report.read_text())["config"]["even_n_exploratory"] is True

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "pqm.cfg"
        cfg.write_text("not_a_key = 1\n")
        assert main(["verify", "--suite", "poset", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "suite, key, value",
        [
            ("fourier", "samples", -5),
            ("fourier", "samples", 0),
            ("poset", "poset_limit", 1),
            ("poset", "poset_limit", -3),
            # a NaN tolerance fails every check, an infinite one passes any residual
            ("good", "tolerance", "nan"),
            ("good", "tolerance", "inf"),
            # above the bound the poset suite would build 10^5+ divisor lists
            ("poset", "poset_limit", 100001),
        ],
    )
    def test_vacuous_config_exits_2(self, tmp_path, capsys, monkeypatch, suite, key, value):
        # a sweep over no cases would report PASS with residual 0; every bad
        # value is rejected before the suite runs
        def never(cfg):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(verify._SUITE_FUNCS, suite, never)
        flag = "--" + key.replace("_", "-")
        assert main(["verify", "--suite", suite, flag, str(value)]) == 2
        assert key.replace("_", " ") in _one_error_line(capsys)
        cfg = tmp_path / "pqm.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main(["verify", "--suite", suite, "--config", str(cfg)]) == 2
        assert key.replace("_", " ") in _one_error_line(capsys)

    def test_unwritable_json_exits_2(self, tmp_path, capsys):
        report = tmp_path / "no" / "r.json"
        assert main(["verify", "--suite", "poset", "--json", str(report)]) == 2
        _one_error_line(capsys)

    def test_nan_residual_report_is_strict_json(self, tmp_path, monkeypatch, capsys):
        def nan_suite(cfg):
            rep = verify._Reporter("fourier", cfg.tolerance)
            rep.case("parseval", 0.0, 1e-12)
            rep.case("parseval", float("nan"), 1e-12)
            rep.case("overflow", float("inf"), 1e-12)
            return rep.done()

        def no_constants(token):
            raise ValueError(f"non-JSON token {token}")

        monkeypatch.setitem(verify._SUITE_FUNCS, "fourier", nan_suite)
        report = tmp_path / "r.json"
        assert main(["verify", "--suite", "fourier", "--json", str(report)]) == 1
        assert "[FAIL] fourier:parseval residual=nan" in capsys.readouterr().out
        data = json.loads(report.read_text(), parse_constant=no_constants)
        assert [(c["name"], c["residual"], c["passed"]) for c in data["checks"]] == [
            ("overflow", "inf", False),
            ("parseval", "nan", False),
        ]
        assert data["passed"] is False

    def test_report_deterministic(self, tmp_path):
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        for r in (r1, r2):
            assert (
                main(
                    ["verify", "--suite", "hw", "--samples", "2", "--seed", "5", "--json", str(r)]
                )
                == 0
            )
        assert r1.read_bytes() == r2.read_bytes()

    def test_default_check_table(self):
        # the report's (suite, name, tolerance) triples, in report order
        got = [(r.suite, r.name, r.tolerance) for r in verify.run_suites(verify.VerifyConfig())]
        assert got == [
            ("fourier", "fourier_fourth_power_is_identity", 1e-10),
            ("fourier", "parseval", 1e-12),
            ("good", "good_factorization_matches_direct", 1e-10),
            ("hw", "group_law_matches_matrices", 1e-12),
            ("hw", "zx_commutator_exact_phase", 0.0),
            ("hw", "zx_commutator_matrices", 1e-12),
            ("tomography", "displacement_expansion", 1e-09),
            ("tomography", "resolution_of_identity", 1e-09),
            ("parity", "parity_displacement_expansion", 1e-09),
            ("parity", "parity_hermitian", 1e-12),
            ("parity", "parity_sandwich_trace", 1e-09),
            ("parity", "parity_squares_to_identity", 1e-12),
            ("parity", "parity_tomography", 1e-09),
            ("marginals", "marginal_a_pairing", 1e-12),
            ("marginals", "marginal_b_pairing_with_hat", 1e-12),
            ("marginals", "parity_marginal_pairings", 1e-09),
            ("coherent", "coherent_resolution_of_identity", 1e-09),
            ("embeddings", "character_preservation_exact", 0.0),
            ("embeddings", "composition_exact", 0.0),
            ("embeddings", "fourier_intertwining", 1e-10),
            ("embeddings", "hw_intertwining", 1e-10),
            ("embeddings", "ubiquity_entropy", 1e-12),
            ("embeddings", "ubiquity_norm", 1e-15),
            ("embeddings", "ubiquity_weyl_wigner", 1e-12),
            ("numbers", "character_factorization_exact", 0.0),
            ("numbers", "crt_round_trips_bijective", 0.0),
            ("numbers", "minus_one_digit_pattern", 0.0),
            ("numbers", "ostrowski_product_is_one", 0.0),
            ("poset", "symbolic_suprema", 0.0),
            ("poset", "t0_everywhere", 0.0),
            ("poset", "t1_fails_with_witness_for_composite", 0.0),
            ("poset", "width_length_oracle_values", 0.0),
            ("schwartz", "canonicalization_isometry", 1e-12),
            ("schwartz", "degree_refinement_invariance", 1e-12),
            ("schwartz", "degree_refinement_invariance_integer_exact", 0.0),
            ("schwartz", "fourier_degree_swap", 0.0),
        ]

    @pytest.mark.parametrize("cases", [(1.0, np.nan, 2.0), (np.nan, 3.0), (0.5, 0.5, np.nan)])
    def test_nan_case_is_the_worst(self, cases):
        rep = verify._Reporter("s", None)
        for residual in cases:
            rep.case("c", residual, 1.0)
        (result,) = rep.done()
        assert np.isnan(result.residual) and not result.passed

    def test_parity_sandwich_oracle_files_under_its_check(self, monkeypatch):
        # the fast residuals are zero, so only the brute-force sum over
        # (wrongly doubled) parity matrices can fail the sandwich check
        zero = fq.ParityCheckResult(0.0, 0.0, 0.0)
        monkeypatch.setattr(fq, "parity_expand_check", lambda theta: zero)
        parity_matrix = fq.parity_matrix
        monkeypatch.setattr(fq, "parity_matrix", lambda *args: 2 * parity_matrix(*args))
        results = {r.name: r for r in verify.suite_parity(verify.VerifyConfig())}
        assert not results["parity_sandwich_trace"].passed
        assert results["parity_sandwich_trace"].residual > 1e-3

    def test_nan_fourier_fails_both_checks(self, monkeypatch, capsys):
        # max(res, nan) is res, so a running max would report this as a PASS
        fourier = fq.fourier

        def nan_fourier(f):
            g = fourier(f)
            g.amplitudes[0] = np.nan
            return g

        monkeypatch.setattr(fq, "fourier", nan_fourier)
        results = verify.suite_fourier(verify.VerifyConfig(samples=2))
        assert [r.name for r in results] == ["fourier_fourth_power_is_identity", "parseval"]
        assert all(np.isnan(r.residual) and not r.passed for r in results)
        assert main(["verify", "--suite", "fourier", "--samples", "2"]) == 1
        out = capsys.readouterr().out
        assert out.count("residual=nan") == 2 and "FAILED: 2 checks" in out
