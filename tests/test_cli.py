import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import geomatch.bottleneck as bottleneck_mod
import geomatch.cli as cli_mod
from geomatch.bottleneck import bottleneck_search, pd_bottleneck
from geomatch.cli import main, parse_diagram, parse_points, parse_ranges
from geomatch.flow import Flow
from geomatch.geometry import Metric
from geomatch.numeric import InputError, InternalError

from brute import bottleneck_brute
from helpers import first_primes, rand_boxes, rand_congruent_disks, rand_points


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def triangle(tmp_path):
    pts = write(tmp_path, "p.csv", "0,0,2\n4,0,3\n")
    rng = write(tmp_path, "r.csv", "box,0,-1,2,1,1\nbox,2,-1,4,1,4\n")
    return pts, rng


# ------------------------------------------------------------------ parsers

def test_parse_points_infers_dim_and_supply(tmp_path):
    path = write(tmp_path, "p.csv", "# comment\n1,2\n3,4,7/2\n")
    pts, sup = parse_points(path, 2)
    assert [p.coords for p in pts] == [(1, 2), (3, 4)]
    assert sup[1] == pytest.approx(3.5)


def test_parse_points_bad_width(tmp_path):
    path = write(tmp_path, "p.csv", "1,2,3,4\n")
    with pytest.raises(InputError, match="p.csv:1"):
        parse_points(path, 2)


def test_parse_points_rejects_nonpositive_supply(tmp_path):
    path = write(tmp_path, "p.csv", "1,2,0\n")
    with pytest.raises(InputError, match=":1"):
        parse_points(path, 2)


def test_parse_ranges_box_and_disk(tmp_path):
    path = write(tmp_path, "r.csv", "box,0,0,1,1\ndisk,3,3,2,5\n")
    ranges, demands, dim = parse_ranges(path)
    assert dim == 2
    assert demands == [1, 5]


def test_parse_ranges_bad_kind(tmp_path):
    path = write(tmp_path, "r.csv", "b0x,0,0,1,1\n")
    with pytest.raises(InputError, match="r.csv:1"):
        parse_ranges(path)


def test_parse_ranges_dimension_conflict(tmp_path):
    path = write(tmp_path, "r.csv", "box,0,1\nbox,0,0,1,1\n")
    with pytest.raises(InputError, match=":2"):
        parse_ranges(path)


def test_parse_diagram_rules(tmp_path):
    ok = write(tmp_path, "d.csv", "1,3\n2,2\n")
    assert parse_diagram(ok) == [(1, 3)]  # diagonal row dropped
    bad = write(tmp_path, "bad.csv", "3,1\n")
    with pytest.raises(InputError, match="bad.csv:1"):
        parse_diagram(bad)


# -------------------------------------------------------------- subcommands

def test_cover_box_stats_and_file(tmp_path, capsys, triangle):
    pts, rng = triangle
    out = str(tmp_path / "cover.txt")
    code, stdout, stderr = run_cli(
        capsys, "cover", pts, rng, "--shape", "box", "--out", out
    )
    assert code == 0 and stderr == ""
    stats = json.loads(stdout)
    assert stats["sigma"] == 4 and stats["parts"] == 2
    assert stats["n_points"] == 2 and stats["sigma_normalized"] == 2.0
    assert (tmp_path / "cover.txt").read_text().startswith("sigma=4")


def test_cover_out_and_out_dir_are_exclusive(tmp_path, capsys, triangle):
    # argparse refuses the pair before any cover file is written
    with pytest.raises(SystemExit) as exc:
        main(["cover", *triangle, "--out", str(tmp_path / "c.txt"), "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not list(tmp_path.glob("c*.txt"))


def test_cover_empty_input(tmp_path, capsys):
    pts = write(tmp_path, "p.csv", "")
    rng = write(tmp_path, "r.csv", "")
    code, stdout, _ = run_cli(capsys, "cover", pts, rng)
    assert code == 0
    assert json.loads(stdout)["sigma"] == 0


def test_cover_shape_mismatch_is_input_error(tmp_path, capsys):
    pts = write(tmp_path, "p.csv", "0,0\n")
    rng = write(tmp_path, "r.csv", "disk,0,0,1\n")
    code, _, stderr = run_cli(capsys, "cover", pts, rng, "--shape", "box")
    assert code == 2
    assert "box" in stderr


def _csv(row) -> str:
    return ",".join(str(x) for x in row) + "\n"


def _integral_instances(tmp_path, rng, count):
    """(points, ranges) files of seeded random instances with weights 1-5,
    boxes and congruent disks in turn."""
    out = []
    for i in range(count):
        n, m = rng.randrange(4, 13), rng.randrange(3, 10)
        points = rand_points(rng, n)
        if i % 2:
            ranges = [
                _csv(("box",) + b.lo.coords + b.hi.coords + (rng.randrange(1, 6),))
                for b in rand_boxes(rng, m)
            ]
        else:
            ranges = [
                _csv(("disk",) + d.center.coords + (d.radius, rng.randrange(1, 6)))
                for d in rand_congruent_disks(rng, m)
            ]
        pts = "".join(_csv(p.coords + (rng.randrange(1, 6),)) for p in points)
        out.append((
            write(tmp_path, f"p{i}.csv", pts),
            write(tmp_path, f"r{i}.csv", "".join(ranges)),
        ))
    return out


def test_match_modes_agree(tmp_path, capsys, triangle):
    """On integral weights both modes run the implicit engine, so they print
    the same JSON, matching and phase trace included, apart from ``mode``."""
    instances = [triangle] + _integral_instances(tmp_path, random.Random(2020), 40)
    for i, (pts, rng) in enumerate(instances):
        bodies = {}
        for mode in ("integral", "real"):
            code, stdout, _ = run_cli(capsys, "match", pts, rng, "--mode", mode, "--trace")
            assert code == 0
            bodies[mode] = json.loads(stdout)
            assert bodies[mode].pop("mode") == mode
        assert bodies["integral"] == bodies["real"], i
        if i == 0:
            assert bodies["integral"]["value"] == "4"

    pts = write(tmp_path, "p.csv", "2,0\n0,0\n")
    rng = write(tmp_path, "r.csv", "box,-1,-1,3,1\nbox,1,-1,3,1\n")
    code, stdout, _ = run_cli(capsys, "match", pts, rng, "--mode", "integral", "--trace")
    assert code == 0
    body = json.loads(stdout)
    assert body["value"] == "2"
    assert [step["t_level"] for step in body["trace"]] == [3, 5]


def test_match_triangle_value_five(tmp_path, capsys):
    pts = write(tmp_path, "p.csv", "0,0,2\n4,0,3\n")
    rng = write(tmp_path, "r.csv", "box,-1,-1,1,1,1\nbox,-9,-9,9,9,4\n")
    code, stdout, _ = run_cli(capsys, "match", pts, rng)
    assert code == 0
    assert json.loads(stdout)["value"] == "5"


def test_match_empty_ranges(tmp_path, capsys):
    pts = write(tmp_path, "p.csv", "0,0\n")
    rng = write(tmp_path, "r.csv", "")
    code, stdout, _ = run_cli(capsys, "match", pts, rng)
    assert code == 0
    body = json.loads(stdout)
    assert body["value"] == "0" or body["value"] == 0
    assert body["matching"] == []


def test_match_nonintegral_rejected_in_integral_mode(tmp_path, capsys):
    pts = write(tmp_path, "p.csv", "0,0,1/2\n")
    rng = write(tmp_path, "r.csv", "box,-1,-1,1,1\n")
    code, _, stderr = run_cli(capsys, "match", pts, rng, "--mode", "integral")
    assert code == 2
    assert "integral" in stderr
    code, stdout, _ = run_cli(capsys, "match", pts, rng, "--mode", "real")
    assert code == 0
    assert json.loads(stdout)["value"] == "1/2"


def test_match_with_a_runaway_common_denominator_is_input_error(tmp_path, capsys):
    rows = "".join(f"0,0,1/{p}\n" for p in first_primes(600))
    pts = write(tmp_path, "p.csv", rows)
    rng = write(tmp_path, "r.csv", "box,-1,-1,1,1\n")
    code, stdout, stderr = run_cli(capsys, "match", pts, rng, "--mode", "real")
    assert code == 2
    assert stdout == ""
    assert "bits" in stderr


def test_match_on_disks_past_the_float_range(tmp_path, capsys):
    big = 10**400
    pts = write(tmp_path, "p.csv", f"{big + 1},{big}\n{big - 3},{big + 5}\n")
    rng = write(tmp_path, "r.csv", f"disk,{big},{big},3\ndisk,{big - 2},{big + 4},3\n")
    for mode in ("integral", "real"):
        code, stdout, _ = run_cli(capsys, "match", pts, rng, "--mode", mode)
        assert code == 0
        assert json.loads(stdout)["value"] == "2"


def test_match_with_cover_file(tmp_path, capsys, triangle):
    pts, rng = triangle
    cov = str(tmp_path / "c.txt")
    assert run_cli(capsys, "cover", pts, rng, "--shape", "box", "--out", cov)[0] == 0
    code, stdout, _ = run_cli(capsys, "match", pts, rng, "--cover", cov)
    assert code == 0
    assert json.loads(stdout)["value"] == "4"


def test_match_trace_levels_increase(tmp_path, capsys):
    pts = write(tmp_path, "p.csv", "0,0\n2,0\n")
    rng = write(
        tmp_path, "r.csv", "box,-1,-1,3,1\nbox,1,-1,3,1\n"
    )  # p0 in both, p1 only in the second
    code, stdout, _ = run_cli(capsys, "match", pts, rng, "--mode", "real", "--trace")
    assert code == 0
    trace = json.loads(stdout)["trace"]
    levels = [step["t_level"] for step in trace]
    assert levels == sorted(set(levels))


def test_match_passes_the_engine_a_trace_only_under_the_flag(monkeypatch, capsys, triangle):
    engine, traces = cli_mod.max_matching_implicit, []

    def spied(*args, trace=None):
        traces.append(trace)
        return engine(*args, trace=trace)

    monkeypatch.setattr(cli_mod, "max_matching_implicit", spied)
    code, stdout, _ = run_cli(capsys, "match", *triangle)
    assert code == 0 and "trace" not in json.loads(stdout) and traces == [None]
    code, stdout, _ = run_cli(capsys, "match", *triangle, "--trace")
    assert code == 0 and len(json.loads(stdout)["trace"]) == len(traces[1]) > 0


def test_bottleneck_metrics(tmp_path, capsys):
    red = write(tmp_path, "red.csv", "0,0\n")
    blue = write(tmp_path, "blue.csv", "1,2\n")
    code, stdout, _ = run_cli(capsys, "bottleneck", red, blue)
    assert code == 0 and json.loads(stdout)["lambda_star"] == "2"
    code, stdout, _ = run_cli(capsys, "bottleneck", red, blue, "--metric", "l1")
    assert code == 0 and json.loads(stdout)["lambda_star"] == "3"
    code, stdout, _ = run_cli(capsys, "bottleneck", red, blue, "--metric", "l2")
    body = json.loads(stdout)
    assert code == 0 and body["lambda_star_sq"] == "5"


@pytest.mark.parametrize("command", ["match", "cover", "pd", "bottleneck"])
def test_seed_is_refused_where_nothing_reads_it(triangle, capsys, command):
    # no command draws anything at random, so none takes a seed
    with pytest.raises(SystemExit) as exc:
        main([command, *triangle, "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_bottleneck_decision_flag(tmp_path, capsys):
    red = write(tmp_path, "red.csv", "0,0\n")
    blue = write(tmp_path, "blue.csv", "1,2\n")
    code, stdout, _ = run_cli(capsys, "bottleneck", red, blue, "--lambda", "2")
    body = json.loads(stdout)
    assert code == 0 and body["feasible"] and body["matching"]
    code, stdout, _ = run_cli(capsys, "bottleneck", red, blue, "--lambda", "19/10")
    body = json.loads(stdout)
    assert code == 0 and not body["feasible"] and body["matching"] is None


def test_bottleneck_float_decision_is_exact(tmp_path, capsys):
    red = write(tmp_path, "red.csv", "-1.7,1.9\n0.3,-3.4\n-4.3,4.4\n")
    blue = write(tmp_path, "blue.csv", "-0.5,0.8\n3.4,2.4\n1.6,0.3\n")
    for numeric in ("rational", "float"):
        argv = ["bottleneck", red, blue, "--numeric", numeric]
        code, stdout, _ = run_cli(capsys, *argv, "--lambda", "5.1")
        body = json.loads(stdout)
        assert code == 0 and body["feasible"]
        assert sorted(map(tuple, body["matching"])) == [(0, 1, 1), (1, 2, 1), (2, 0, 1)]
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        star = json.loads(stdout)["lambda_star"]
        assert star == (5.1 if numeric == "float" else "51/10")


def test_bottleneck_linf_in_three_dimensions(tmp_path, capsys):
    rng = random.Random(41)
    for _ in range(5):
        n = rng.randrange(1, 7)
        P, Q = rand_points(rng, n, d=3), rand_points(rng, n, d=3)
        rows = lambda pts: "".join(",".join(map(str, p.coords)) + "\n" for p in pts)
        red, blue = write(tmp_path, "red.csv", rows(P)), write(tmp_path, "blue.csv", rows(Q))
        code, stdout, _ = run_cli(capsys, "bottleneck", red, blue)
        assert code == 0
        assert Fraction(json.loads(stdout)["lambda_star"]) == bottleneck_brute(P, Q, Metric.LINF)


def test_bottleneck_dimension_errors_exit_2_naming_the_line(tmp_path, capsys):
    red = write(tmp_path, "red.csv", "0,0,0\n")
    blue = write(tmp_path, "blue.csv", "1,2,3\n")
    for metric in ("l1", "l2"):
        code, _, stderr = run_cli(capsys, "bottleneck", red, blue, "--metric", metric)
        assert code == 2 and "red.csv:1" in stderr
    red = write(tmp_path, "red.csv", "0,0,0\n")
    blue = write(tmp_path, "blue.csv", "1,2\n")
    code, _, stderr = run_cli(capsys, "bottleneck", red, blue)
    assert code == 2 and "blue.csv:1" in stderr


def test_bottleneck_size_mismatch(tmp_path, capsys):
    red = write(tmp_path, "red.csv", "0,0\n1,1\n")
    blue = write(tmp_path, "blue.csv", "1,2\n")
    code, _, stderr = run_cli(capsys, "bottleneck", red, blue)
    assert code == 2 and "mismatch" in stderr


def test_pd_commands(tmp_path, capsys):
    d1 = write(tmp_path, "d1.csv", "1,3\n")
    d2 = write(tmp_path, "d2.csv", "")
    code, stdout, _ = run_cli(capsys, "pd", d1, d2)
    assert code == 0 and json.loads(stdout)["w_inf"] == "1"
    code, stdout, _ = run_cli(capsys, "pd", d1, d1)
    assert code == 0 and json.loads(stdout)["w_inf"] == "0"


def test_pd_float_output_is_exact_answer_rounded(tmp_path, capsys):
    d1 = write(tmp_path, "d1.csv", "-3.4,-0.7\n0.2,5.5\n")
    d2 = write(tmp_path, "d2.csv", "2.2,6.4\n1.8,4.2\n")
    for numeric, want in (("rational", "2"), ("float", 2.0)):
        code, stdout, _ = run_cli(capsys, "pd", d1, d2, "--numeric", numeric)
        assert code == 0 and json.loads(stdout)["w_inf"] == want


def test_l2_bottleneck_past_the_float_squares_prints_its_root(tmp_path, capsys):
    # lambda*^2 = 10^400 lies past the float range, lambda* = 10^200 does not
    red = write(tmp_path, "r.csv", "0,0\n")
    blue = write(tmp_path, "b.csv", f"{10**200},0\n")
    code, stdout, _ = run_cli(capsys, "bottleneck", red, blue, "--metric", "l2")
    assert code == 0
    assert json.loads(stdout)["lambda_star"] == 1e200
    assert json.loads(stdout)["lambda_star_sq"] == str(10**400)


def test_float_output_past_the_float_range_exits_2_naming_it(tmp_path, capsys):
    d1 = write(tmp_path, "d1.csv", f"0,{10**400}\n")
    d2 = write(tmp_path, "d2.csv", "0,1\n")
    code, stdout, stderr = run_cli(capsys, "pd", d1, d2, "--numeric", "float")
    assert code == 2 and stdout == ""
    assert f"{5 * 10**399} lies past the float range" in stderr
    code, stdout, _ = run_cli(capsys, "pd", d1, d2)
    assert code == 0 and json.loads(stdout)["w_inf"] == str(5 * 10**399)
    # an L2 lambda* is always printed as a float
    red = write(tmp_path, "r.csv", "0,0\n")
    blue = write(tmp_path, "b.csv", f"{10**400},0\n")
    code, stdout, stderr = run_cli(capsys, "bottleneck", red, blue, "--metric", "l2")
    assert code == 2 and stdout == ""
    assert f"the square root of {10**800} lies past the float range" in stderr


def test_pd_below_diagonal_is_input_error(tmp_path, capsys):
    d1 = write(tmp_path, "d1.csv", "3,1\n")
    d2 = write(tmp_path, "d2.csv", "")
    code, _, stderr = run_cli(capsys, "pd", d1, d2)
    assert code == 2 and "d1.csv:1" in stderr


def test_missing_file_is_input_error(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "pd", str(tmp_path / "nope.csv"), str(tmp_path / "nope.csv"))
    assert code == 2 and "cannot read" in stderr


def test_missing_cover_file_exits_2_naming_it(tmp_path, capsys, triangle):
    pts, rng = triangle
    missing = str(tmp_path / "missing.txt")
    code, _, stderr = run_cli(capsys, "match", pts, rng, "--cover", missing)
    assert code == 2 and f"cannot read {missing}" in stderr


@pytest.mark.parametrize("flag", ["--out", "--out-dir"])
def test_unwritable_cover_output_exits_2_naming_it(tmp_path, capsys, triangle, flag):
    pts, rng = triangle
    target = tmp_path / "no_such_dir"
    code, _, stderr = run_cli(
        capsys, "cover", pts, rng, "--shape", "box", flag,
        str(target / "c.txt") if flag == "--out" else str(target),
    )
    assert code == 2 and f"cannot write {target}" in stderr


@pytest.mark.parametrize(
    "body, where",
    [
        ("sigma=2 parts=2\nP: 0 | R: 0\n\nP: x | R: 1\n", "bad part on line 4"),
        ("sigma=4 parts=2\nP: 0 | R: 0\nP: 7 | R: 1\n", "part on line 3 references a point index"),
        ("sigma=99 parts=1\nP: 0 | R: 0\n", "header sigma=99"),
    ],
    ids=["bad-part", "index-out-of-range", "sigma"],
)
def test_cover_file_errors_name_the_file_and_line(tmp_path, capsys, triangle, body, where):
    pts, rng = triangle
    cov = write(tmp_path, "c.txt", body)
    code, _, stderr = run_cli(capsys, "match", pts, rng, "--cover", cov)
    assert code == 2 and f"error: {cov}: {where}" in stderr


def test_jobs_start_no_more_workers_than_instances(monkeypatch, capsys, triangle):
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("geomatch.cli.ProcessPoolExecutor", InProcessPool)
    pts, rng = triangle
    code, stdout, _ = run_cli(capsys, "match", pts, rng, pts, rng, "--jobs", "64")
    assert code == 0 and len(json.loads(stdout)) == 2
    assert asked == [2]


def test_odd_file_count_rejected(tmp_path, capsys):
    d1 = write(tmp_path, "d1.csv", "1,3\n")
    code, _, stderr = run_cli(capsys, "pd", d1)
    assert code == 2 and "pairs" in stderr


def test_multi_instance_and_jobs(tmp_path, capsys, triangle):
    pts, rng = triangle
    code, serial, _ = run_cli(capsys, "match", pts, rng, pts, rng)
    assert code == 0
    code, parallel, _ = run_cli(capsys, "match", pts, rng, pts, rng, "--jobs", "2")
    assert code == 0
    assert serial == parallel
    body = json.loads(parallel)
    assert isinstance(body, list) and len(body) == 2


def test_float_numeric_flag(tmp_path, capsys, triangle):
    pts, rng = triangle
    code, stdout, _ = run_cli(capsys, "match", pts, rng, "--numeric", "float")
    assert code == 0
    assert json.loads(stdout)["value"] == 4.0


def test_default_numeric_is_exact_above_1000_elements(tmp_path, capsys):
    # weights of 1e-11: arithmetic that treats amounts up to 1e-9 as zero
    # answers 0 here
    n = 1001
    w = "0.00000000001"
    pts = write(tmp_path, "p.csv", "".join(f"{i},0,{w}\n" for i in range(n)))
    rng = write(tmp_path, "r.csv", "".join(f"box,{i},0,{i},0,{w}\n" for i in range(n)))
    code, stdout, _ = run_cli(capsys, "match", pts, rng, "--mode", "real")
    assert code == 0
    assert json.loads(stdout)["value"] == f"{n}/100000000000"
    # float is an output format: the same exact answer, printed rounded
    code, stdout, _ = run_cli(capsys, "match", pts, rng, "--mode", "real", "--numeric", "float")
    assert code == 0
    body = json.loads(stdout)
    assert body["value"] == float(Fraction(n, 10**11)) and body["matching_size"] == n


@pytest.mark.parametrize("command", ["cover", "match", "bottleneck", "pd"])
def test_numeric_auto_is_refused(triangle, capsys, command):
    # every result is exact: rational, the default, and float are the formats
    with pytest.raises(SystemExit) as exc:
        main([command, *triangle, "--numeric", "auto"])
    assert exc.value.code == 2
    assert "--numeric" in capsys.readouterr().err


def test_bottleneck_finish_short_of_pairs_exits_3(tmp_path, capsys, monkeypatch):
    # the minimax finish of an L-infinity search given no pairs cannot reach
    # the target: an internal error, not a wrong distance
    rng = random.Random(19)
    rows = lambda pts: "".join(",".join(map(str, p.coords)) + "\n" for p in pts)
    red = write(tmp_path, "red.csv", rows(rand_points(rng, 12)))
    blue = write(tmp_path, "blue.csv", rows(rand_points(rng, 12)))
    code, stdout, _ = run_cli(capsys, "bottleneck", red, blue)
    assert code == 0 and len(json.loads(stdout)["matching"]) == 12
    listed = []
    monkeypatch.setattr(
        bottleneck_mod, "_pairs_within", lambda cover, pp, *_: listed.append(1) or [[] for _ in pp]
    )
    code, stdout, stderr = run_cli(capsys, "bottleneck", red, blue)
    assert listed and code == 3 and stdout == ""
    assert "do not reach the target" in stderr


def test_max_flow_short_of_the_target_stops_every_search(tmp_path, capsys, monkeypatch):
    # a max flow that reports one unit short makes every decision
    # infeasible, up to the search's cap, where the search must stop with an
    # internal error; past 100 max flows it has not stopped
    dinitz, calls = bottleneck_mod.max_flow_dinitz, []

    def short(net, residual=None):
        calls.append(1)
        assert len(calls) < 100, "the search does not stop"
        flow = dinitz(net, residual)
        return Flow(flow.values, flow.value - 1, flow.reached)

    monkeypatch.setattr(bottleneck_mod, "max_flow_dinitz", short)
    rng = random.Random(57)
    P, Q = rand_points(rng, 6), rand_points(rng, 6)
    for metric in Metric:
        calls.clear()
        with pytest.raises(InternalError, match="falls short of the target"):
            bottleneck_search(P, Q, metric)
    calls.clear()
    with pytest.raises(InternalError, match="falls short of the target"):
        pd_bottleneck([(0, 3), (1, 5)], [(2, 4), (0, 1)])
    calls.clear()
    rows = lambda pts: "".join(",".join(map(str, p.coords)) + "\n" for p in pts)
    red, blue = write(tmp_path, "red.csv", rows(P)), write(tmp_path, "blue.csv", rows(Q))
    code, stdout, stderr = run_cli(capsys, "bottleneck", red, blue)
    assert code == 3 and stdout == "" and "falls short of the target" in stderr


def test_output_deterministic(tmp_path, capsys, triangle):
    pts, rng = triangle
    one = run_cli(capsys, "match", pts, rng)[1]
    two = run_cli(capsys, "match", pts, rng)[1]
    assert one == two


def test_module_entry_point_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "geomatch.cli", "pd", "/nonexistent-a", "/nonexistent-b"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "error" in proc.stderr
