import csv

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
