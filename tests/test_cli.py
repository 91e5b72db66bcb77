import csv
import random
from fractions import Fraction

import pytest

from threadkd import cli

FIVE_CSV = "# k=2 bound=16\n2,2\n2,6\n6,2\n6,6\n8,10\n"


def run(argv):
    return cli.main(argv)


def read(path):
    return path.read_text(encoding="ascii")


def test_generate_empty(tmp_path):
    out = tmp_path / "p.csv"
    assert run(["generate", "--n", "0", "--k", "2", "--out", str(out)]) == 0
    assert read(out) == "# k=2 bound=4096\n"


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["generate", "--n", "50", "--k", "2", "--seed", "7"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert read(a) == read(b)


def test_generate_points_are_distinct_and_bounded(tmp_path):
    out = tmp_path / "p.csv"
    assert run(["generate", "--n", "1000", "--k", "3", "--radix", "4",
                "--width", "3", "--out", str(out)]) == 0
    lines = read(out).splitlines()
    assert lines[0] == "# k=3 bound=64"
    rows = [tuple(map(int, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 1000
    assert len(set(rows)) == 1000
    assert all(0 <= c < 64 for r in rows for c in r)


def test_generate_overfull_exits_2(tmp_path):
    out = tmp_path / "p.csv"
    assert run(["generate", "--n", "100", "--k", "1", "--radix", "2",
                "--width", "3", "--out", str(out)]) == 2


def test_generate_bad_dist_exits_2(tmp_path):
    with pytest.raises(SystemExit) as e:
        run(["generate", "--n", "5", "--dist", "zipf",
             "--out", str(tmp_path / "p.csv")])
    assert e.value.code == 2


def test_generate_queries_companion(tmp_path):
    p, q = tmp_path / "p.csv", tmp_path / "q.csv"
    assert run(["generate", "--n", "20", "--k", "2", "--out", str(p),
                "--queries", str(q)]) == 0
    rows = read(q).splitlines()
    assert len(rows) == 100
    for ln in rows:
        vals = list(map(int, ln.split(",")))
        assert len(vals) == 4
        assert vals[0] <= vals[1] and vals[2] <= vals[3]


def test_verify_five_points(tmp_path, capsys):
    p, q, rep = tmp_path / "p.csv", tmp_path / "q.csv", tmp_path / "r.csv"
    p.write_text(FIVE_CSV, encoding="ascii")
    q.write_text("1,8,5,7\n5,8,12,14\n", encoding="ascii")
    assert run(["verify", "--points", str(p), "--queries", str(q),
                "--radix", "4", "--width", "2", "--out", str(rep)]) == 0
    body = read(rep).splitlines()
    assert "query_id,index_count,brute_count,match" in body
    assert "0,2,2,1" in body
    assert "1,0,0,1" in body
    assert "# mismatches=0 violations=0" in body
    assert "OK" in capsys.readouterr().out


def test_verify_parse_error_line_number(tmp_path, capsys):
    p, q = tmp_path / "p.csv", tmp_path / "q.csv"
    p.write_text("# k=2 bound=16\n2,2\n2,oops\n", encoding="ascii")
    q.write_text("0,1,0,1\n", encoding="ascii")
    assert run(["verify", "--points", str(p), "--queries", str(q)]) == 2
    assert ":3:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
def test_verify_non_finite_value_exits_2(tmp_path, capsys, value):
    p, q = tmp_path / "p.csv", tmp_path / "q.csv"
    p.write_text(f"# k=2 bound=16\n2,2\n{value},6\n", encoding="ascii")
    q.write_text("0,1,0,1\n", encoding="ascii")
    assert run(["verify", "--points", str(p), "--queries", str(q)]) == 2
    assert ":3: non-finite value" in capsys.readouterr().err


def test_verify_missing_header(tmp_path):
    p, q = tmp_path / "p.csv", tmp_path / "q.csv"
    p.write_text("2,2\n", encoding="ascii")
    q.write_text("0,1,0,1\n", encoding="ascii")
    assert run(["verify", "--points", str(p), "--queries", str(q)]) == 2


def test_verify_repeated_header_key(tmp_path, capsys):
    # the last k must not silently win: the error names the header line
    p, q = tmp_path / "p.csv", tmp_path / "q.csv"
    p.write_text("# k=2 bound=16 k=3\n2,2\n", encoding="ascii")
    q.write_text("0,1,0,1\n", encoding="ascii")
    assert run(["verify", "--points", str(p), "--queries", str(q)]) == 2
    assert ":1: header repeats k" in capsys.readouterr().err


def test_verify_bad_window_rejected(tmp_path):
    p, q = tmp_path / "p.csv", tmp_path / "q.csv"
    p.write_text(FIVE_CSV, encoding="ascii")
    q.write_text("8,1,5,7\n", encoding="ascii")
    assert run(["verify", "--points", str(p), "--queries", str(q),
                "--radix", "4", "--width", "2"]) == 2


def test_verify_mismatch_exits_1(tmp_path, monkeypatch):
    p, q = tmp_path / "p.csv", tmp_path / "q.csv"
    p.write_text(FIVE_CSV, encoding="ascii")
    q.write_text("1,8,5,7\n", encoding="ascii")
    monkeypatch.setattr(cli, "brute_force_query", lambda pts, w: [])
    assert run(["verify", "--points", str(p), "--queries", str(q),
                "--radix", "4", "--width", "2"]) == 1


def test_verify_quantizes_floats(tmp_path):
    p, q, rep = tmp_path / "p.csv", tmp_path / "q.csv", tmp_path / "r.csv"
    p.write_text("# k=2 bound=16\n-1.5,0.25\n3.5,0.75\n", encoding="ascii")
    q.write_text("0,15,0,15\n", encoding="ascii")
    assert run(["verify", "--points", str(p), "--queries", str(q),
                "--out", str(rep)]) == 0
    body = read(rep)
    assert "quantization dim 0" in body
    assert "0,2,2,1" in body


def test_bench_report_shape_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", "--n", "200,400", "--k", "2", "--seed", "3",
            "--radix", "16", "--width", "2"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0

    def rows(path):
        lines = [ln for ln in read(path).splitlines() if not ln.startswith("#")]
        return list(csv.DictReader(lines))

    ra, rb = rows(a), rows(b)
    assert len(ra) == len(rb)
    engines = {r["engine"] for r in ra}
    assert engines == {"threaded", "naive", "brute"}
    phases = {r["phase"] for r in ra}
    assert phases == {"build", "insert", "query", "delete"}
    per_n_queries = [r for r in ra if r["phase"] == "query" and r["n"] == "200"]
    assert len(per_n_queries) == 3 * 60
    for x, y in zip(ra, rb):
        for col in x:
            if col != "wall_us":
                assert x[col] == y[col]
    # engine agreement on every query row
    for n in ("200", "400"):
        counts = {}
        for r in ra:
            if r["phase"] == "query" and r["n"] == n:
                counts.setdefault(r["label"], set()).add(r["result_count"])
        assert all(len(v) == 1 for v in counts.values())


def test_bench_bad_sizes_exits_2():
    assert run(["bench", "--n", "abc"]) == 2


def test_bench_negative_size_exits_2(tmp_path):
    out = tmp_path / "b.csv"
    for sizes in ("-5", "10,-1"):
        assert run(["bench", "--n", sizes, "--out", str(out)]) == 2


def test_generate_bad_shape_exits_2(tmp_path, capsys):
    out = tmp_path / "p.csv"
    for bad in (["--k", "0"], ["--radix", "1"], ["--width", "0"]):
        assert run(["generate", "--n", "1", "--out", str(out), *bad]) == 2
        assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_verify_bad_shape_exits_2(tmp_path, capsys):
    p, q = tmp_path / "p.csv", tmp_path / "q.csv"
    p.write_text(FIVE_CSV, encoding="ascii")
    q.write_text("1,8,5,7\n", encoding="ascii")
    for bad in (["--radix", "1"], ["--radix", "2", "--width", "1"],
                ["--width", "-1"]):
        assert run(["verify", "--points", str(p), "--queries", str(q),
                    *bad]) == 2
        assert "error:" in capsys.readouterr().err
    # the derived width and an exact cover of bound 16 still pass
    for ok in (["--radix", "2"], ["--radix", "2", "--width", "4"]):
        assert run(["verify", "--points", str(p), "--queries", str(q),
                    *ok]) == 0


def test_bench_bad_shape_exits_2(tmp_path, capsys):
    out = tmp_path / "b.csv"
    for bad in (["--k", "0"], ["--radix", "1"], ["--width", "0"]):
        assert run(["bench", "--n", "1", "--k", "1", "--out", str(out),
                    *bad]) == 2
        assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_bench_size_past_the_universe_writes_nothing(tmp_path, capsys):
    # every size is drawn before the report opens: no partial report
    out = tmp_path / "b.csv"
    assert run(["bench", "--n", "10,5000", "--k", "1", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", [["generate", "--n", "1"],
                                 ["bench", "--n", "1", "--k", "1"]])
def test_negative_width_exits_2(tmp_path, capsys, cmd):
    # radix ** width is not taken before the width is checked: a negative
    # width gives a float bound, and 0 ** -1 raises ZeroDivisionError
    out = tmp_path / "out.csv"
    for bad in (["--width", "-1"], ["--radix", "0", "--width", "-1"]):
        assert run([*cmd, "--out", str(out), *bad]) == 2
        assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_verify_window_outside_bound_names_its_line(tmp_path, capsys):
    p, q = tmp_path / "p.csv", tmp_path / "q.csv"
    p.write_text(FIVE_CSV, encoding="ascii")
    q.write_text("1,8,5,7\n# comment\n0,16,0,15\n", encoding="ascii")
    assert run(["verify", "--points", str(p), "--queries", str(q)]) == 2
    err = capsys.readouterr().err
    assert f"{q}:3:" in err and "outside" in err


@pytest.mark.parametrize("cmd", ["generate", "verify", "bench"])
def test_output_that_cannot_be_opened_exits_2(tmp_path, capsys, cmd):
    p, q = tmp_path / "p.csv", tmp_path / "q.csv"
    p.write_text(FIVE_CSV, encoding="ascii")
    q.write_text("1,8,5,7\n", encoding="ascii")
    args = {"generate": ["generate", "--n", "5"],
            "verify": ["verify", "--points", str(p), "--queries", str(q)],
            "bench": ["bench", "--n", "20", "--width", "2"]}[cmd]
    missing = tmp_path / "missing" / "out.csv"
    assert run([*args, "--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {missing}: ") and "Traceback" not in err


def test_generate_queries_that_cannot_be_opened_write_no_points(tmp_path,
                                                                capsys):
    p = tmp_path / "p.csv"
    missing = tmp_path / "missing" / "q.csv"
    assert run(["generate", "--n", "5", "--out", str(p),
                "--queries", str(missing)]) == 2
    assert f"error: {missing}: " in capsys.readouterr().err
    assert not p.exists()


def test_generate_points_that_cannot_be_opened_write_no_queries(tmp_path,
                                                                capsys):
    missing = tmp_path / "missing" / "p.csv"
    q = tmp_path / "q.csv"
    assert run(["generate", "--n", "5", "--out", str(missing),
                "--queries", str(q)]) == 2
    assert f"error: {missing}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_header_after_blank_lines(tmp_path, capsys):
    p, q, rep = tmp_path / "p.csv", tmp_path / "q.csv", tmp_path / "r.csv"
    p.write_text("\n  \n" + FIVE_CSV.replace("\n", "\n# note\n", 1),
                 encoding="ascii")
    q.write_text("1,8,5,7\n", encoding="ascii")
    assert run(["verify", "--points", str(p), "--queries", str(q),
                "--out", str(rep)]) == 0
    assert "0,2,2,1" in read(rep).splitlines()
    # a bad header is reported on its own line
    p.write_text("\n2,2\n", encoding="ascii")
    assert run(["verify", "--points", str(p), "--queries", str(q)]) == 2
    assert f"{p}:2: header must look like" in capsys.readouterr().err


def test_bench_reads_its_windows_from_a_file(tmp_path, capsys):
    q, out = tmp_path / "q.csv", tmp_path / "b.csv"
    q.write_text("0,100,0,100\n\n5,9,200,255\n", encoding="ascii")
    args = ["bench", "--n", "50,80", "--k", "2", "--width", "2",
            "--queries", str(q), "--out", str(out)]
    assert run(args) == 0
    lines = [ln for ln in read(out).splitlines() if not ln.startswith("#")]
    rows = [r for r in csv.DictReader(lines) if r["phase"] == "query"]
    for engine in ("threaded", "naive", "brute"):
        for n in ("50", "80"):
            assert [r["label"] for r in rows if r["engine"] == engine
                    and r["n"] == n] == ["q0", "q1"]
    # a window outside the universe [0, 256) names its line, and no
    # report is written
    out.unlink()
    q.write_text("0,100,0,100\n0,256,0,10\n", encoding="ascii")
    assert run(args) == 2
    err = capsys.readouterr().err
    assert f"{q}:2:" in err and "outside" in err
    assert not out.exists()


def point_windows(pts):
    """One window per point, holding exactly that point."""
    return "".join(",".join(f"{c},{c}" for c in p) + "\n" for p in pts)


def test_verify_keeps_integers_past_2_53_exact(tmp_path):
    p, q, rep = tmp_path / "p.csv", tmp_path / "q.csv", tmp_path / "r.csv"
    assert run(["generate", "--n", "1000", "--k", "2", "--radix", "16",
                "--width", "15", "--out", str(p)]) == 0
    written = [tuple(map(int, ln.split(","))) for ln in read(p).splitlines()[1:]]
    k, bound, pts, notes = cli.load_points(str(p))
    assert (k, bound) == (2, 2 ** 60)
    assert pts == written and notes == ["quantization: identity"]
    # each point's own window finds it in the index and the brute force
    q.write_text(point_windows(written[:20]), encoding="ascii")
    assert run(["verify", "--points", str(p), "--queries", str(q),
                "--out", str(rep)]) == 0
    body = read(rep).splitlines()
    assert all(f"{i},1,1,1" in body for i in range(20))
    # two ints that one float stands for are two points, and an integral
    # float is still an integer
    p.write_text("# k=1 bound=18014398509481984\n9007199254740993\n"
                 "9007199254740992\n2.0\n", encoding="ascii")
    assert cli.load_points(str(p))[2:] == (
        [(9007199254740993,), (9007199254740992,), (2,)],
        ["quantization: identity"])


def test_generate_verify_and_bench_past_2_63(tmp_path):
    p, q, rep = tmp_path / "p.csv", tmp_path / "q.csv", tmp_path / "r.csv"
    shape = ["--k", "2", "--radix", "16", "--width", "17"]
    assert run(["generate", "--n", "300", *shape, "--out", str(p)]) == 0
    _, bound, pts, _ = cli.load_points(str(p))
    assert bound == 16 ** 17 and max(max(pt) for pt in pts) >= 2 ** 63
    q.write_text(point_windows(pts[:10]) + f"0,{bound - 1},0,{bound - 1}\n",
                 encoding="ascii")
    assert run(["verify", "--points", str(p), "--queries", str(q),
                "--out", str(rep)]) == 0
    body = read(rep).splitlines()
    assert all(f"{i},1,1,1" in body for i in range(10))
    assert "10,300,300,1" in body
    assert run(["bench", "--n", "200", *shape, "--out", str(rep)]) == 0


def test_verify_writes_each_violation_and_exits_1(tmp_path, monkeypatch,
                                                  capsys):
    p, q, rep = tmp_path / "p.csv", tmp_path / "q.csv", tmp_path / "r.csv"
    p.write_text(FIVE_CSV, encoding="ascii")
    q.write_text("1,8,5,7\n", encoding="ascii")
    build = cli._index

    def corrupted(*args):
        # a cross link on the last level, which no query reads
        idx = build(*args)
        last = idx.trees[-1]
        last.cross[last.first()] = 1
        return idx

    monkeypatch.setattr(cli, "_index", corrupted)
    assert run(["verify", "--points", str(p), "--queries", str(q),
                "--out", str(rep)]) == 1
    body = read(rep).splitlines()
    assert "# violation: last level: node (2, 2) has a cross link" in body
    assert "# mismatches=0 violations=1" in body
    assert "0 mismatches, 1 violations -> FAIL" in capsys.readouterr().out


def test_verify_notes_dropped_duplicates(tmp_path):
    p, q, rep = tmp_path / "p.csv", tmp_path / "q.csv", tmp_path / "r.csv"
    p.write_text(FIVE_CSV + "2,6\n8,10\n2,6\n", encoding="ascii")
    q.write_text("0,15,0,15\n", encoding="ascii")
    assert run(["verify", "--points", str(p), "--queries", str(q),
                "--out", str(rep)]) == 0
    body = read(rep).splitlines()
    assert "# dropped 3 duplicate points" in body and "0,5,5,1" in body


def test_bench_engine_mismatch_exits_1(tmp_path, monkeypatch, capsys):
    out = tmp_path / "b.csv"
    q = tmp_path / "q.csv"
    q.write_text("0,255,0,255\n0,0,0,0\n0,127,0,255\n", encoding="ascii")
    monkeypatch.setattr(cli, "brute_force_query", lambda arr, w: [])
    assert run(["bench", "--n", "50", "--width", "2", "--queries", str(q),
                "--out", str(out)]) == 1
    # the full and the half window hold points; the brute force says none
    assert "# engine mismatches: 2" in read(out).splitlines()
    assert "bench: 2 engine mismatches" in capsys.readouterr().err


def test_bench_writes_its_mismatch_count_once(tmp_path, monkeypatch):
    out = tmp_path / "b.csv"
    q = tmp_path / "q.csv"
    q.write_text("0,255,0,255\n0,0,0,0\n0,127,0,255\n", encoding="ascii")
    brute = cli.brute_force_query
    # wrong at the first size only: two mismatches at n=50, none at n=60
    monkeypatch.setattr(cli, "brute_force_query",
                        lambda arr, w: [] if len(arr) == 50 else brute(arr, w))
    assert run(["bench", "--n", "50,60", "--width", "2", "--queries", str(q),
                "--out", str(out)]) == 1
    lines = read(out).splitlines()
    assert [x for x in lines if "mismatches" in x] == [
        "# engine mismatches: 2"]
    assert lines[-1] == "# engine mismatches: 2"


def test_verify_rescales_exactly_at_any_bound(tmp_path):
    p, q, rep = tmp_path / "p.csv", tmp_path / "q.csv", tmp_path / "r.csv"
    q.write_text("0,0\n", encoding="ascii")
    # in floats, 10**199 * (bound - 1) overflows to infinity
    p.write_text(f"# k=1 bound={10 ** 200}\n0.5\n{10 ** 199}\n",
                 encoding="ascii")
    assert cli.load_points(str(p))[2] == [(0,), (10 ** 200 - 1,)]
    assert run(["verify", "--points", str(p), "--queries", str(q),
                "--out", str(rep)]) == 0
    # in floats, the maximum lands on the bound itself
    p.write_text(f"# k=1 bound={2 ** 54}\n0.5\n9007199254740993\n1.5\n",
                 encoding="ascii")
    assert cli.load_points(str(p))[2] == [(0,), (2 ** 54 - 1,), (2,)]
    assert run(["verify", "--points", str(p), "--queries", str(q),
                "--out", str(rep)]) == 0


def fraction_rescale(rows, bound):
    """The rescale in exact rationals, as ``round`` of a ``Fraction``
    gives it: the reference that ``load_points``' integer path must
    equal."""
    cols = list(zip(*rows))
    los = [Fraction(min(c)) for c in cols]
    spans = [Fraction(max(c)) - lo or 1 for c, lo in zip(cols, los)]
    return [tuple(round((Fraction(v) - lo) * (bound - 1) / span)
                  for v, lo, span in zip(row, los, spans)) for row in rows]


@pytest.mark.parametrize("bound", [16, 4096, 2 ** 54, 10 ** 30])
def test_verify_rescale_equals_the_fraction_path(tmp_path, bound):
    # floats of every scale, ints past 2**53, a column with one value, and
    # one whose odd values scale to exact ties, x.5, on both sides of an
    # even integer
    rng = random.Random(bound)
    ties = [0, 1, 3, 5, 7, 2 * (bound - 1)]
    rows = [(rng.uniform(-1e3, 1e3), rng.choice([0.25, 0.5, 0.75, 1.0, 0.0]),
             rng.choice([2 ** 60 + 1, -3, 1e-300, 7.5, 1e300]), 4.5,
             rng.choice(ties)) for _ in range(300)]
    rows += [(0.5, 0.0, 2 ** 60 + 3, 4.5, 0), (2.5, 1.0, -3, 4.5, ties[-1])]
    p = tmp_path / "p.csv"
    p.write_text(f"# k=5 bound={bound}\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in rows), encoding="ascii")
    k, got_bound, pts, notes = cli.load_points(str(p))
    want = list(dict.fromkeys(fraction_rescale(rows, bound)))
    assert (k, got_bound, pts) == (5, bound, want)
    for j in range(5):
        lo = Fraction(min(row[j] for row in rows))
        span = Fraction(max(row[j] for row in rows)) - lo or 1
        assert notes[j] == (f"quantization dim {j}: x -> round((x - "
                            f"{float(lo):g}) * {bound - 1} / {float(span):g})")


VERIFY = ["verify", "--points", "{p}", "--queries", "{q}"]


@pytest.mark.parametrize("argv,points,queries,message", [
    (VERIFY, "", "0,1,0,1\n", "p.csv: empty file"),
    (VERIFY, "# k=x bound=16\n2,2\n", "0,1,0,1\n",
     "p.csv:1: non-integer k or bound"),
    (VERIFY, "# k=0 bound=16\n2,2\n", "0,1,0,1\n",
     "p.csv:1: k and bound must be positive"),
    (VERIFY, "# k=2 bound=16\n2,2,2\n", "0,1,0,1\n",
     "p.csv:2: expected 2 fields, got 3"),
    (VERIFY, FIVE_CSV, "0,1,0\n", "q.csv:1: expected 4 fields, got 3"),
    (VERIFY, FIVE_CSV, "0,1,0,x\n", "q.csv:1: non-integer bound"),
    (VERIFY, None, "0,1,0,1\n", "p.csv: [Errno 2]"),
    (["generate", "--n", "-1", "--out", "{p}"], None, None,
     "--n must be >= 0"),
    (["bench", "--n", ","], None, None, "--n lists no sizes"),
])
def test_bad_input_exits_2(tmp_path, capsys, argv, points, queries, message):
    p, q = tmp_path / "p.csv", tmp_path / "q.csv"
    for path, text in ((p, points), (q, queries)):
        if text is not None:
            path.write_text(text, encoding="ascii")
    assert run([a.format(p=p, q=q) for a in argv]) == 2
    assert message in capsys.readouterr().err
