import hashlib
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pqm
from helpers import wigner_csv_oracle, wigner_table_complex_oracle
from pqm import cli
from pqm import finiteqm as fq
from pqm import numbers as nm
from pqm import poset as ps
from pqm import verify
from pqm.cli import dump_state, load_state, main
from pqm.finiteqm import MOMENTUM, POSITION, FiniteState, random_state, weyl_wigner

RNG = np.random.default_rng(99)


def _write_state(path, n=6, rep=POSITION, seed=1):
    f = random_state(n, np.random.default_rng(seed), rep=rep)
    dump_state(f, str(path))
    return f


_PRIMORIAL_67 = 7858321551080267055879090  # 2*3*5*...*67


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_output_is_refused_unwritten(self, bad, tmp_path, capsys, monkeypatch):
        # JSON has no NaN or Infinity: the writer refuses them, in pqm's line
        monkeypatch.setattr(fq, "fourier", lambda f: FiniteState(2, MOMENTUM, [bad, 1.0]))
        src, out = tmp_path / "f.json", tmp_path / "g.json"
        _write_state(src, n=2)
        assert main(["fourier", "--in", str(src), "--out", str(out)]) == 2
        assert _one_error_line(capsys) == (
            f"pqm: error: cannot write state file {out}: non-finite amplitude\n"
        )
        assert not out.exists()

    def test_size_bound_before_parsing(self, tmp_path, capsys, monkeypatch):
        src, out = tmp_path / "f.json", tmp_path / "g.json"
        _write_state(src, n=6)
        size = src.stat().st_size
        monkeypatch.setattr(cli, "_STATE_BOUND", size)
        assert main(["fourier", "--in", str(src), "--out", str(out)]) == 0
        monkeypatch.setattr(cli, "_STATE_BOUND", size - 1)
        monkeypatch.setattr(json, "load", lambda fh: pytest.fail("file parsed"))
        monkeypatch.setattr(json, "loads", lambda text: pytest.fail("file parsed"))
        out.unlink()
        assert main(["fourier", "--in", str(src), "--out", str(out)]) == 2
        assert _one_error_line(capsys) == (
            f"pqm: error: state file {src} exceeds bound {size - 1} bytes\n"
        )
        assert not out.exists()

    def test_size_bound_holds_the_largest_state_pqm_writes(self, tmp_path):
        # 2^20 amplitudes (the bound of ``pqm embed --to``), every pair at the
        # longest repr of a float, with fourier's longest metadata.  The file
        # is linear in the pairs, so two small ones give its size
        z = complex(-2.2250738585072014e-308, -2.2250738585072014e-308)
        sizes = []
        for k in (1, 2):
            p = tmp_path / f"s{k}.json"
            dump_state(FiniteState(k, MOMENTUM, [z] * k), str(p), metadata={"method": "direct"})
            sizes.append(p.stat().st_size)
        per_pair = sizes[1] - sizes[0]
        assert per_pair == 54
        largest = sizes[0] + (cli._EMBED_BOUND - 1) * per_pair + len(str(cli._EMBED_BOUND)) - 1
        assert largest <= cli._STATE_BOUND < largest + 2**10

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @pytest.mark.parametrize("metadata", [None, {"method": "good"}])
    @pytest.mark.parametrize("rep", [POSITION, MOMENTUM])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_chunked_writer_matches_one_json_dumps(
        self, n, rep, metadata, chunk, tmp_path, monkeypatch
    ):
        # chunks of 1, 2 and 3 pairs meet every n here at a full, a partial
        # and a single last chunk; the real chunk of 2^14 pairs is one of them
        monkeypatch.setattr(cli, "_STATE_CHUNK", chunk)
        f = random_state(n, np.random.default_rng(n), rep=rep)
        f.amplitudes[0] = complex(-0.0, 1e-300)
        data = {"n": n, "rep": rep, "amplitudes": [[z.real, z.imag] for z in f.amplitudes]}
        if metadata:
            data["metadata"] = metadata
        p, q = tmp_path / "f.json", tmp_path / "g.json"
        dump_state(f, str(p), metadata=metadata)
        assert p.read_text() == json.dumps(data, sort_keys=True) + "\n"
        g = load_state(str(p))
        dump_state(g, str(q), metadata=metadata)
        assert q.read_bytes() == p.read_bytes()
        assert np.array_equal(g.amplitudes.view(float), f.amplitudes.view(float))

    @pytest.mark.parametrize(
        "extra", [[0] * 50, [{}] * 50, [[]] * 50, ["ab"] * 50, {f"k{i}": 0 for i in range(50)}]
    )
    def test_count_bound_before_parsing(self, extra, tmp_path, capsys, monkeypatch):
        # a file pqm did not write: valid pairs, and an extra key that holds
        # most of the values.  Counted in the text, refused unparsed
        src, out = tmp_path / "f.json", tmp_path / "g.json"
        src.write_text(json.dumps(
            {"n": 2, "rep": POSITION, "amplitudes": [[1, 0], [0, 0]], "extra": extra}
        ))
        count = sum(src.read_text().count(c) for c in ',[{:"')
        monkeypatch.setattr(cli, "_STATE_TOKEN_BOUND", count)
        assert main(["fourier", "--in", str(src), "--out", str(out)]) == 0
        monkeypatch.setattr(cli, "_STATE_TOKEN_BOUND", count - 1)
        monkeypatch.setattr(json, "loads", lambda text: pytest.fail("file parsed"))
        out.unlink()
        assert main(["fourier", "--in", str(src), "--out", str(out)]) == 2
        assert _one_error_line(capsys) == (
            f"pqm: error: state file {src} exceeds bound {count - 1} JSON tokens\n"
        )
        assert not out.exists()

    def test_count_bound_holds_the_largest_state_pqm_writes(self, tmp_path):
        # as for the byte bound: 2^20 pairs with fourier's metadata, from the
        # count of two small files, which is linear in the pairs
        counts = []
        for k in (1, 2):
            p = tmp_path / f"s{k}.json"
            dump_state(FiniteState(k, MOMENTUM, [1j] * k), str(p), metadata={"method": "direct"})
            counts.append(sum(p.read_text().count(c) for c in ',[{:"'))
        assert counts[1] - counts[0] == 3
        largest = counts[0] + (cli._EMBED_BOUND - 1) * 3
        assert largest <= cli._STATE_TOKEN_BOUND < largest + 2**10

    def test_n_bound_before_the_array(self, tmp_path, capsys, monkeypatch):
        src, out = tmp_path / "f.json", tmp_path / "g.json"
        _write_state(src, n=6)
        monkeypatch.setattr(cli, "_EMBED_BOUND", 5)
        monkeypatch.setattr(np, "array", lambda *a, **k: pytest.fail("array built"))
        assert main(["fourier", "--in", str(src), "--out", str(out)]) == 2
        assert _one_error_line(capsys) == (
            f"pqm: error: malformed state file {src}: n=6 exceeds bound 5\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("opener", ["[", '{"a": '])
    def test_deep_nesting_exits_2(self, opener, tmp_path, capsys):
        # a few hundred kB of nesting, far under both bounds, ends at the
        # parser's recursion limit: one line, not a RecursionError traceback
        src, out = tmp_path / "f.json", tmp_path / "g.json"
        closer = "]" if opener == "[" else "}"
        src.write_text(opener * 10**5 + "0" + closer * 10**5)
        assert main(["fourier", "--in", str(src), "--out", str(out)]) == 2
        assert _one_error_line(capsys).startswith(f"pqm: error: cannot read state file {src}: ")
        assert not out.exists()


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

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_good_writes_what_direct_writes(self, n, tmp_path):
        # Good's transform took n >= 2 only, and refused a 1-point state that
        # the direct one transforms.  Where Good takes the single FFT, at a
        # prime power and at n = 1, the two files differ only in the method
        # tag; at n = 6 the CRT remap rounds in its own order
        src = tmp_path / "f.json"
        _write_state(src, n=n)
        text = {}
        for method in ("direct", "good"):
            out = tmp_path / f"{method}.json"
            assert main(["fourier", "--method", method, "--in", str(src), "--out", str(out)]) == 0
            text[method] = out.read_text().replace(f'"method": "{method}"', '"method": "?"')
        if n < 6:
            assert text["good"] == text["direct"]
        else:
            a, b = (json.loads(text[m]) for m in ("direct", "good"))
            assert {**a, "amplitudes": None} == {**b, "amplitudes": None}
            np.testing.assert_allclose(a["amplitudes"], b["amplitudes"], rtol=0, atol=1e-15)

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

    _PAIRS = "amplitudes must be [re, im] number pairs"

    @pytest.mark.parametrize(
        "n, amplitudes, reason",
        [
            ("2", "[[1" + "0" * 400 + ", 0.0], [0.0, 0.0]]", "amplitude beyond the float range"),
            ("2.7", "[[1.0, 0.0], [0.0, 0.0]]", "n=2.7 is not an integer"),
            ("2.0", "[[1.0, 0.0], [0.0, 0.0]]", "n=2.0 is not an integer"),
            ("true", "[[1.0, 0.0]]", "n=True is not an integer"),
            ('"2"', "[[1.0, 0.0], [0.0, 0.0]]", "n='2' is not an integer"),
            ("2", '[["1", 0.0], [0.0, 0.0]]', _PAIRS),
            ("2", "[[1.0, null], [0.0, 0.0]]", _PAIRS),
            # numpy reads JSON true as 1, or as 1.0 beside a float
            ("2", "[[true, false], [false, true]]", _PAIRS),
            ("2", "[[1, 0], [true, 0]]", _PAIRS),
            ("2", "[[0.5, 0.5], [false, 0.25]]", _PAIRS),
            # every shape that is not n pairs, ragged ones too, names the format
            ("2", "[[1.0], [0.0, 0.0]]", _PAIRS),
            ("2", "[[1.0], [0.0]]", _PAIRS),
            ("2", "[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]", _PAIRS),
            ("2", "[[[1.0, 0.0]], [[0.0, 0.0]]]", _PAIRS),
            ("2", "[1.0, 0.0]", _PAIRS),
            ("2", "[[1.0, 0.0], 5]", _PAIRS),
            ("2", "[[1.0, 0.0], [[0.0, 0.0]]]", _PAIRS),
        ],
        ids=[
            "int_beyond_float", "fractional_n", "float_n", "bool_n", "string_n",
            "string_amplitude", "null_amplitude", "bool_amplitudes",
            "bool_beside_int", "bool_beside_float", "short_pair", "short_pairs",
            "long_pairs", "nested_pairs", "flat_list", "pair_then_number",
            "pair_then_nested_pair",
        ],
    )
    def test_malformed_state_exits_2(self, n, amplitudes, reason, tmp_path, capsys):
        src = tmp_path / "f.json"
        src.write_text(f'{{"n": {n}, "rep": "position", "amplitudes": {amplitudes}}}')
        out = tmp_path / "o.json"
        assert main(["fourier", "--in", str(src), "--out", str(out)]) == 2
        assert _one_error_line(capsys) == f"pqm: error: malformed state file {src}: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[1, 2]", '"abc"'], ids=["list", "string"])
    def test_state_that_is_not_an_object_exits_2(self, text, tmp_path, capsys):
        src = tmp_path / "f.json"
        src.write_text(text)
        out = tmp_path / "o.json"
        assert main(["fourier", "--in", str(src), "--out", str(out)]) == 2
        assert _one_error_line(capsys) == (
            f"pqm: error: malformed state file {src}: not a JSON object\n"
        )
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
        "command",
        [
            ["fourier"],
            ["fourier", "--method", "good"],
            ["displace", "--alpha", "1", "--beta", "1"],
            ["embed", "--from", "2", "--to", "4"],
            ["wigner"],
            ["wigner", "--kind", "weyl"],
        ],
    )
    def test_squared_norm_beyond_the_float_range_exits_2(self, command, tmp_path, capsys):
        # every amplitude is finite, but the squares of the position values
        # are not: the outputs would be inf and NaN, which JSON cannot hold.
        # The momentum squares sum to 1.44e308, but the position values
        # n ifft(p) are 2.4e154 at x = 0 and their squares sum to 5.8e308
        src, out = tmp_path / "f.json", tmp_path / "o.out"
        for text in (
            '{"n": 2, "rep": "position", "amplitudes": [[1e308, 1e308], [1e308, 0]]}',
            '{"n": 4, "rep": "momentum", "amplitudes": [[6e153, 0], [6e153, 0], [6e153, 0], [6e153, 0]]}',
        ):
            src.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([*command, "--in", str(src), "--out", str(out)]) == 2
            assert _one_error_line(capsys) == (
                f"pqm: error: malformed state file {src}: "
                "squared amplitudes sum beyond the float range\n"
            )
            assert not out.exists()

    def test_embed_beyond_the_float_range_is_refused_unwritten(self, tmp_path, capsys):
        # embed repeats the position values --to/--from times, and so their
        # sum of squares: 1.44e308 loads, 2.88e308 would not load again
        src, out = tmp_path / "f.json", tmp_path / "g.json"
        src.write_text('{"n": 2, "rep": "position", "amplitudes": [[8.4e153, 0], [8.4e153, 0]]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["embed", "--from", "2", "--to", "4", "--in", str(src), "--out", str(out)]) == 2
        assert _one_error_line(capsys) == (
            f"pqm: error: cannot write state file {out}: "
            "squared amplitudes sum beyond the float range\n"
        )
        assert not out.exists()

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

    @pytest.mark.parametrize("n", [2, 7, 8, 17])
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
        # the bytes of the whole-table writer
        assert out.read_bytes() == wigner_csv_oracle(fq.wigner_table(f, kind, doubled)).encode()
        a_range = 2 * n if doubled else n
        assert lines[0] == "a,b,re,im" and len(lines) == 1 + a_range * n
        for i, line in enumerate(lines[1:]):
            a, b, re, im = line.split(",")
            assert (int(a), int(b)) == divmod(i, n)  # a-major rows
            want = weyl_wigner(f, int(a), int(b), kind, doubled)
            assert abs(complex(float(re), float(im)) - want) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 17, 64])
    @pytest.mark.parametrize("rep", [POSITION, MOMENTUM])
    @pytest.mark.parametrize(
        "flags, kind, doubled",
        [
            (["--kind", "weyl"], "weyl", False),
            (["--kind", "wigner"], "wigner", False),
            (["--doubled"], "wigner", True),
        ],
    )
    def test_bytes_match_the_whole_table_writer(self, n, rep, flags, kind, doubled, tmp_path):
        src, out = tmp_path / "f.json", tmp_path / "w.csv"
        _write_state(src, n=n, rep=rep, seed=n)
        f = load_state(str(src))
        assert main(["wigner", *flags, "--in", str(src), "--out", str(out)]) == 0
        table = fq.wigner_table(f, kind, doubled and n % 2 == 0)
        assert out.read_bytes() == wigner_csv_oracle(table).encode()

    @pytest.mark.parametrize("n", [2, 7, 8, 17])
    @pytest.mark.parametrize("flags", [[], ["--doubled"]])
    def test_wigner_im_is_zero_and_re_the_complex_kernel(self, n, flags, tmp_path):
        # W is real: the a,b,re fields are those of the complex kernel, byte
        # for byte, and every im field is 0.0, not rounding noise
        src, out = tmp_path / "f.json", tmp_path / "w.csv"
        _write_state(src, n=n, seed=n)
        f = load_state(str(src))
        assert main(["wigner", "--kind", "wigner", *flags, "--in", str(src), "--out", str(out)]) == 0
        complex_table = wigner_table_complex_oracle(f, bool(flags) and n % 2 == 0)
        want = wigner_csv_oracle(complex_table).splitlines()
        got = out.read_text().splitlines()
        assert got[0] == want[0] == "a,b,re,im" and len(got) == len(want)
        for line, old in zip(got[1:], want[1:]):
            fields, im = line.rsplit(",", 1)
            assert fields == old.rsplit(",", 1)[0] and im == "0.0"

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        src = tmp_path / "f.json"
        _write_state(src, n=2)
        assert main(["wigner", "--in", str(src), "--out", str(tmp_path / "no" / "w.csv")]) == 2
        _one_error_line(capsys)

    @pytest.mark.parametrize("n, flags", [(1025, []), (726, ["--doubled"])])
    def test_table_over_the_bound_exits_2(self, n, flags, tmp_path, capsys, monkeypatch):
        # the cells of the table that would be built, counted after the state
        # file is read and before the table is built
        monkeypatch.setattr(fq, "wigner_table", lambda *args: pytest.fail("table built"))
        src, out = tmp_path / "f.json", tmp_path / "w.csv"
        _write_state(src, n=n)
        assert main(["wigner", *flags, "--in", str(src), "--out", str(out)]) == 2
        cells = (2 if flags else 1) * n * n
        assert _one_error_line(capsys) == (
            f"pqm: error: table of {cells} cells exceeds bound 1048576\n"
        )
        assert not out.exists()

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


    @pytest.mark.parametrize("dst", [2**20 + 2, 2**70])
    def test_embed_target_over_the_bound_exits_2(self, dst, tmp_path, capsys):
        # checked before the state file is read: this one does not exist
        out = tmp_path / "g.json"
        argv = ["embed", "--from", "2", "--to", str(dst), "--in", str(tmp_path / "f.json"),
                "--out", str(out)]
        assert main(argv) == 2
        assert _one_error_line(capsys) == f"pqm: error: target {dst} exceeds bound 1048576\n"
        assert not out.exists()


def _refuse_chains(*args):
    raise AssertionError("chains built")


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

    @pytest.mark.parametrize(
        "n, line",
        [
            (2, '{"T0": true, "T1": true, "T1_witness": null, "n": 2}'),
            (4, '{"T0": true, "T1": false, "T1_witness": [2, 4], "n": 4}'),
            (12, '{"T0": true, "T1": false, "T1_witness": [2, 4], "n": 12}'),
            (13, '{"T0": true, "T1": true, "T1_witness": null, "n": 13}'),
            (30, '{"T0": true, "T1": false, "T1_witness": [2, 6], "n": 30}'),
            (35, '{"T0": true, "T1": false, "T1_witness": [5, 35], "n": 35}'),
            (45, '{"T0": true, "T1": false, "T1_witness": [3, 9], "n": 45}'),
            (49, '{"T0": true, "T1": false, "T1_witness": [7, 49], "n": 49}'),
            (1001, '{"T0": true, "T1": false, "T1_witness": [7, 77], "n": 1001}'),
            (5040, '{"T0": true, "T1": false, "T1_witness": [2, 4], "n": 5040}'),
            (720720, '{"T0": true, "T1": false, "T1_witness": [2, 4], "n": 720720}'),
            (1000000, '{"T0": true, "T1": false, "T1_witness": [2, 4], "n": 1000000}'),
            (
                963761198400,
                '{"T0": true, "T1": false, "T1_witness": [2, 4], "n": 963761198400}',
            ),
            # a prime and twice it: the factorization stops at the prime cofactor
            (
                1000000000000000003,
                '{"T0": true, "T1": true, "T1_witness": null, "n": 1000000000000000003}',
            ),
            (
                2000000000000000006,
                '{"T0": true, "T1": false, "T1_witness": [2, 2000000000000000006], '
                '"n": 2000000000000000006}',
            ),
        ],
    )
    def test_topology_bytes(self, n, line, capsys):
        # the closed forms print what the check_t0 and check_t1 scans printed
        assert main(["poset", "--n", str(n), "topology"]) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_topology_lists_no_divisors(self, monkeypatch, capsys):
        # T0 and T1 both answer from the factorization of n
        def refuse(*args):
            raise AssertionError("N(n) listed")

        for name in ("divisor_poset", "check_t0", "check_t1"):
            monkeypatch.setattr(ps, name, refuse)
        assert main(["poset", "--n", "963761198400", "topology"]) == 0
        assert json.loads(capsys.readouterr().out)["T0"] is True

    def test_topology_factorizes_n_once(self, monkeypatch, capsys):
        # T0 needs no factorization, and T1 reads the primes divisor_t1 reads
        calls, factorize = [], nm.factorize

        def counted(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(ps, "factorize", counted)
        monkeypatch.setattr(nm, "factorize", counted)
        assert main(["poset", "--n", "963761198400", "topology"]) == 0
        assert calls == [963761198400]
        assert capsys.readouterr().out.startswith('{"T0": true, "T1": false')

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

    @pytest.mark.parametrize(
        "n, query, line",
        [
            (5040, "width", '{"n": 5040, "width": 12}'),
            (5040, "length", '{"length": 8, "n": 5040}'),
            (
                5040,
                "antichain",
                '{"length": 8, "max_antichain": [16, 24, 36, 40, 56, 60, 84, 90, 126, 140, '
                '210, 315], "n": 5040, "width": 12}',
            ),
            (720720, "width", '{"n": 720720, "width": 46}'),
            (720720, "length", '{"length": 10, "n": 720720}'),
            (
                720720,
                "antichain",
                '{"length": 10, "max_antichain": [48, 72, 80, 112, 120, 168, 176, 180, 208, '
                "252, 264, 280, 312, 396, 420, 440, 468, 520, 616, 630, 660, 728, 780, 924, "
                "990, 1092, 1144, 1170, 1386, 1540, 1638, 1716, 1820, 2310, 2574, 2730, 2860, "
                '3465, 4004, 4095, 4290, 6006, 6435, 9009, 10010, 15015], "n": 720720, '
                '"width": 46}',
            ),
            (1000000, "width", '{"n": 1000000, "width": 7}'),
            (1000000, "length", '{"length": 12, "n": 1000000}'),
            (
                1000000,
                "antichain",
                '{"length": 12, "max_antichain": [64, 160, 400, 1000, 2500, 6250, 15625], '
                '"n": 1000000, "width": 7}',
            ),
            (963761198400, "width", '{"n": 963761198400, "width": 882}'),
            (963761198400, "length", '{"length": 18, "n": 963761198400}'),
        ],
    )
    def test_rank_queries_bytes(self, n, query, line, capsys, monkeypatch):
        # width, length and antichain answer from the rank sizes, never the
        # chains, and print what the chains printed
        monkeypatch.setattr(ps, "divisor_width_length", _refuse_chains)
        assert main(["poset", "--n", str(n), query]) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_rank_antichain_bytes_at_6719_divisors(self, capsys, monkeypatch):
        # the 882 divisors of rank 9 of 963761198400: 7559 bytes, by digest
        monkeypatch.setattr(ps, "divisor_width_length", _refuse_chains)
        assert main(["poset", "--n", "963761198400", "antichain"]) == 0
        out = capsys.readouterr().out.encode()
        assert len(out) == 7559
        assert hashlib.sha256(out).hexdigest() == (
            "abd6b5b64c2a7714bf57b3535050382dd2119f93cfd662f121666d1c4c8f769a"
        )

    def test_semiprime_near_10_18(self, capsys):
        # (10^9 + 7)(10^9 + 9): rho splits it; trial division would run to 10^9
        n = 1000000016000000063
        assert main(["poset", "--n", str(n), "width"]) == 0
        assert capsys.readouterr().out == f'{{"n": {n}, "width": 2}}\n'
        assert main(["padic", "crt", "--n", str(n), "--mu", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["moduli"] == [1000000007, 1000000009]

    @pytest.mark.parametrize(
        "argv",
        [
            ["padic", "crt", "--n", "{n}", "--mu", "5"],
            ["poset", "--n", "{n}", "width"],
            ["padic", "ostrowski", "--value", "{n}"],
        ],
    )
    def test_semiprime_past_the_rho_bound_exits_2(self, argv, capsys):
        # two 15-digit primes: rho would run for hours on their product
        n = 316227766016849 * 316227766016857
        assert main([a.format(n=n) for a in argv]) == 2
        assert "exceeds bound 18446744073709551616" in _one_error_line(capsys)

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
        n = _PRIMORIAL_67
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
            # the element 2*3*...*67 has 2^19 - 1 divisors above 1
            (_PRIMORIAL_67, _PRIMORIAL_67, "poset size 524287 exceeds bound 10000"),
            (12, _PRIMORIAL_67, f"{_PRIMORIAL_67} is not a divisor (> 1) of 12"),
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

    @pytest.mark.parametrize("n, mu", [("-5", "0"), ("0", "5"), ("0", "0"), ("1", "0")])
    def test_crt_checks_n_first(self, n, mu, capsys):
        assert main(["padic", "crt", "--n", n, "--mu", mu]) == 2
        assert capsys.readouterr() == ("", "pqm: error: n must be >= 2\n")

    def test_ord_and_expand_at_an_18_digit_prime(self, capsys):
        # trial division up to sqrt(p) used to run for hours here
        p = "1000000000000000003"
        assert main(["padic", "ord", "--p", p, "--value", "3/7"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "abs": "1", "ord": 0, "p": int(p), "value": "3/7"
        }
        assert main(["padic", "expand", "--p", p, "--value=-7/5", "--precision", "12"]) == 0
        digits = json.loads(capsys.readouterr().out)["digits"]
        assert sum(d * int(p) ** i for i, d in enumerate(digits)) * 5 % int(p) ** 12 == (
            -7 % int(p) ** 12
        )

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

    @pytest.mark.parametrize("value", ["1/2", "1/4", "12.5", "1/3", "3"])
    def test_expand_names_a_composite_p_whatever_the_value(self, value, capsys):
        # 1/2 and 12.5 once printed "base is not invertible for the given modulus"
        assert main(["padic", "expand", "--p", "4", "--value", value]) == 2
        assert capsys.readouterr() == ("", "pqm: error: 4 is not prime\n")

    @pytest.mark.parametrize("action", ["ord", "expand", "ostrowski", "decompose"])
    @pytest.mark.parametrize("value", ["1e999999999", "-2.5E-12901", "0e12901"])
    def test_exponent_bound_before_fraction(self, action, value, capsys):
        # Fraction would build 10^999999999 first: a hang and a 415 MB integer
        assert main(["padic", action, "--p", "3", "--value", value]) == 2
        assert capsys.readouterr() == (
            "", f"pqm: error: exponent of {value!r} exceeds bound 12900\n"
        )

    @pytest.mark.parametrize("action", ["ord", "expand", "ostrowski"])
    @pytest.mark.parametrize(
        "value", ["1e4300", "1e-4300", "1e12900", "1" * 3000 + "." + "1" * 3000]
    )
    def test_value_digit_bound(self, action, value, capsys):
        # str() of the value once printed Python's "Exceeds the limit (4300 digits)" line
        assert main(["padic", action, "--p", "3", "--value", value]) == 2
        assert capsys.readouterr() == (
            "", f"pqm: error: value {value!r} has more than 4300 digits\n"
        )

    @pytest.mark.parametrize("value", ["1e4299", "1e-4299", "0.5e4300", "1e12900"])
    def test_values_within_the_bounds_still_print(self, value, capsys):
        action = "decompose" if value == "1e12900" else "ord"  # q mod 1 is printed
        assert main(["padic", action, "--p", "3", "--value", value]) == 0
        out = json.loads(capsys.readouterr().out)
        assert Fraction(out["value"]) % 1 == Fraction(value) % 1

    @pytest.mark.parametrize("precision", ["-1", "-5"])
    def test_expand_rejects_negative_precision(self, precision, capsys):
        assert main(
            ["padic", "expand", "--p", "3", "--value", "1/2", "--precision", precision]
        ) == 2
        assert capsys.readouterr().err == "pqm: error: precision must be >= 1\n"

    def test_expand_precision_bound(self, capsys):
        # the residue mod 3^(10^7) alone would take minutes
        argv = ["padic", "expand", "--p", "3", "--value", "1/2", "--precision"]
        assert main(argv + ["10000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "pqm: error: precision 10000000 exceeds bound 10000\n"
        assert main(argv + ["10000"]) == 0
        assert len(json.loads(capsys.readouterr().out)["digits"]) == 10000

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

    @pytest.mark.parametrize(
        "value, shown",
        [
            ("1", "1"),
            ("-1", "-1"),
            ("3/4", "3/4"),
            ("-720720/1001", "-720"),
            ("1024", "1024"),
            ("-59049/1048576", "-59049/1048576"),
            ("1000003/999983", "1000003/999983"),
            ("-1000000000000000003/1024", "-1000000000000000003/1024"),
        ],
    )
    def test_ostrowski_bytes(self, value, shown, capsys):
        assert main(["padic", "ostrowski", f"--value={value}"]) == 0
        assert capsys.readouterr().out == f'{{"product": "1", "value": "{shown}"}}\n'

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
        cfg.write_text("samples = 2\nseed = 3\n# comment\n")
        code = main(["verify", "--suite", "poset", "--config", str(cfg)])
        assert code == 0

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--max-n", "5"], "max_n = 5"),
            (["--even-n-exploratory"], "even_n_exploratory = yes"),
            (["--poset-limit", "100"], "poset_limit = 100"),
        ],
        ids=["max_n", "even_n_exploratory", "poset_limit"],
    )
    def test_removed_knobs_exit_2(self, tmp_path, capsys, monkeypatch, flags, key):
        # these changed no case of any suite, or fed a sweep that could fail
        # only through verify's own sieve, so neither flag nor key exists
        monkeypatch.setitem(verify._SUITE_FUNCS, "parity", None)  # a run would fail
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "parity", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flags)}" in err and "Traceback" not in err
        cfg = tmp_path / "pqm.cfg"
        cfg.write_text(key + "\n")
        assert main(["verify", "--suite", "parity", "--config", str(cfg)]) == 2
        assert "unknown key" in _one_error_line(capsys)

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "pqm.cfg"
        cfg.write_text("not_a_key = 1\n")
        assert main(["verify", "--suite", "poset", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "suite, key, value",
        [
            ("fourier", "samples", -5),
            ("fourier", "samples", 0),
            # a NaN tolerance fails every check, an infinite one passes any residual
            ("good", "tolerance", "nan"),
            ("good", "tolerance", "inf"),
            # coherent seeds numpy with seed + 6, so it ran and passed
            ("coherent", "seed", -1),
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

    def test_negative_seed_exits_2(self, capsys):
        # a suite seeds numpy with seed + its offset, so seed -1 used to pass
        # some suites and end another in numpy's "expected non-negative integer"
        assert main(["verify", "--seed", "-1"]) == 2
        assert _one_error_line(capsys) == "pqm: error: seed must be >= 0\n"
        with pytest.raises(ValueError, match="seed must be >= 0"):
            verify.VerifyConfig(seed=-1)

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
        parity_matrices = fq._parity_matrices
        monkeypatch.setattr(fq, "_parity_matrices", lambda *args: 2 * parity_matrices(*args))
        results = {r.name: r for r in verify.suite_parity(verify.VerifyConfig())}
        assert not results["parity_sandwich_trace"].passed
        assert results["parity_sandwich_trace"].residual > 1e-3

    def test_nan_fourier_fails_both_checks(self, monkeypatch, capsys):
        # max(res, nan) is res, so a running max would report this as a PASS;
        # the suite runs the stacked kernel, so a NaN in each of its rows
        fourier_values = fq._fourier_values

        def nan_fourier(v, rep):
            out = fourier_values(v, rep)
            out[..., 0] = np.nan
            return out

        monkeypatch.setattr(fq, "_fourier_values", nan_fourier)
        results = verify.suite_fourier(verify.VerifyConfig(samples=2))
        assert [r.name for r in results] == ["fourier_fourth_power_is_identity", "parseval"]
        assert all(np.isnan(r.residual) and not r.passed for r in results)
        assert main(["verify", "--suite", "fourier", "--samples", "2"]) == 1
        out = capsys.readouterr().out
        assert out.count("residual=nan") == 2 and "FAILED: 2 checks" in out


# every padic action and poset query, --version and argparse's --suite check
_EXACT_ARGVS = [
    ["--version"],
    ["padic", "crt", "--n", "720720", "--mu", "7"],
    ["padic", "ord", "--p", "2", "--value", "12"],
    ["padic", "expand", "--p", "3", "--value", "-7/5"],
    ["padic", "ostrowski", "--value", "3/4"],
    ["padic", "decompose", "--value", "5/6"],
    *(["poset", "--n", "720720", q] for q in ("width", "length", "partition", "antichain")),
    ["poset", "--n", "5040", "topology"],
    ["poset", "--n", "720720", "basis", "--element", "360"],
    ["verify", "--suite", "nope"],
]


def test_exact_commands_never_load_numpy():
    # one fresh interpreter: this test process has numpy loaded already
    code = f"""
import contextlib, io, sys
import pqm.cli
codes = []
for argv in {_EXACT_ARGVS!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(pqm.cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(codes, "numpy" in sys.modules)
print(pqm.verify.__name__, "numpy" in sys.modules)
"""
    src = str(Path(pqm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    codes = [0] * (len(_EXACT_ARGVS) - 1) + [2]
    # pqm.verify, which the benchmark worker reads, loads on first access
    assert proc.stdout == f"{codes} False\npqm.verify True\n"
