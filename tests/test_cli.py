"""End-to-end checks for the command-line interface.

Every test drives `reqsel.cli.run` in-process with explicit --out
directories so nothing leaks into the working tree.
"""

import csv
import hashlib
import json

import numpy as np
import pytest

from reqsel import cli
from reqsel.dependency_graph import (
    load_constraints,
    load_influence_matrix,
    load_vdg,
)
from reqsel.selection_models import parse_lp
from reqsel.valuation import load_requirements


def write_prefs(path):
    # correlated pair with counts (40, 10, 10, 40) over 100 users, plus an
    # independent alternating row that must stay insignificant
    r1 = [1] * 50 + [0] * 50
    r2 = [1] * 40 + [0] * 10 + [1] * 10 + [0] * 40
    r3 = [i % 2 for i in range(100)]
    with open(path, "w") as fh:
        for rid, row in zip(("r1", "r2", "r3"), (r1, r2, r3)):
            fh.write(rid + "," + ",".join(str(v) for v in row) + "\n")
    return path


def write_reqs(path):
    with open(path, "w") as fh:
        fh.write(
            "id,name,cost,value,probability\n"
            "r1,alpha,0,10,1.0\n"
            "r2,beta,0,6,0.5\n"
            "r3,gamma,0,4,1.0\n"
        )
    return path


def run_chain(tmp_path):
    """identify -> influence, returning the paths later stages consume."""
    prefs = write_prefs(tmp_path / "prefs.csv")
    assert cli.run(["identify", "--preferences", str(prefs), "--out", str(tmp_path / "ident")]) == 0
    vdg = tmp_path / "ident" / "vdg.csv"
    assert cli.run(["influence", "--vdg", str(vdg), "--out", str(tmp_path / "infl")]) == 0
    return {
        "prefs": prefs,
        "vdg": vdg,
        "report": tmp_path / "ident" / "eells_report.csv",
        "influence": tmp_path / "infl" / "influence.csv",
        "reqs": write_reqs(tmp_path / "reqs.csv"),
    }


class TestExitCodes:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["--version"])
        assert exc.value.code == 0
        assert "reqsel 0.1.0" in capsys.readouterr().out

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["select", "--dataset", "casestudy", "--percent", "50"])
        assert exc.value.code == 2

    def test_missing_file_exits_two(self, tmp_path, capsys):
        rc = cli.run(
            ["identify", "--preferences", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_dataset_and_requirements_conflict(self, tmp_path, capsys):
        reqs = write_reqs(tmp_path / "reqs.csv")
        rc = cli.run(
            ["select", "--dataset", "casestudy", "--requirements", str(reqs),
             "--percent", "50", "--method", "sbk", "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_casestudy_rejects_external_constraints(self, tmp_path, capsys):
        extra = tmp_path / "extra.json"
        extra.write_text("[]\n")
        rc = cli.run(
            ["select", "--dataset", "casestudy", "--constraints", str(extra),
             "--percent", "50", "--method", "sbk", "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "ships its own constraints" in capsys.readouterr().err

    def test_casestudy_rejects_cost_budget(self, tmp_path, capsys):
        rc = cli.run(
            ["select", "--dataset", "casestudy", "--budget", "100",
             "--method", "sbk", "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "--percent" in capsys.readouterr().err

    def test_budget_and_percent_are_exclusive(self, tmp_path):
        reqs = write_reqs(tmp_path / "reqs.csv")
        both = cli.run(
            ["select", "--requirements", str(reqs), "--budget", "5", "--percent", "50",
             "--method", "sbk", "--out", str(tmp_path)]
        )
        neither = cli.run(
            ["select", "--requirements", str(reqs), "--method", "sbk", "--out", str(tmp_path)]
        )
        assert both == 2
        assert neither == 2

    def test_vdg_and_influence_are_exclusive(self, tmp_path):
        paths = run_chain(tmp_path)
        rc = cli.run(
            ["select", "--requirements", str(paths["reqs"]), "--vdg", str(paths["vdg"]),
             "--influence", str(paths["influence"]), "--percent", "60",
             "--method", "dars", "--out", str(tmp_path / "sel")]
        )
        assert rc == 2

    def test_no_instance_source_exits_two(self, tmp_path, capsys):
        rc = cli.run(["select", "--percent", "50", "--method", "sbk", "--out", str(tmp_path)])
        assert rc == 2
        assert "--dataset casestudy or --requirements" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--node-limit", "0"), ("--time-limit", "-1")])
    def test_nonpositive_limit_exits_two(self, tmp_path, capsys, flag, value):
        for command in (["select", "--percent", "50", "--method", "sbk"], ["sweep", "--percents", "50"]):
            rc = cli.run([*command, "--dataset", "casestudy", flag, value, "--out", str(tmp_path)])
            assert rc == 2
            assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("cost, value", [("inf", "4"), ("0", "nan"), ("nan", "4")])
    def test_non_finite_requirement_exits_two(self, tmp_path, capsys, cost, value):
        reqs = tmp_path / "reqs.csv"
        reqs.write_text(f"id,name,cost,value,probability\nr1,a,1,10,1\nr3,c,{cost},{value},1\n")
        rc = cli.run(
            ["select", "--requirements", str(reqs), "--budget", "3", "--method", "pcbk",
             "--out", str(tmp_path / "sel")]
        )
        assert rc == 2
        assert "line 3: requirement r3" in capsys.readouterr().err
        assert not (tmp_path / "sel").exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-1.5"])
    def test_bad_influence_cell_exits_two(self, tmp_path, capsys, cell):
        infl = tmp_path / "influence.csv"
        infl.write_text(f"id,r1,r2,r3\nr1,0,0.5,0\nr2,{cell},0,0\nr3,0,0,0\n")
        rc = cli.run(
            ["select", "--requirements", str(write_reqs(tmp_path / "reqs.csv")),
             "--influence", str(infl), "--budget", "3", "--method", "dars",
             "--out", str(tmp_path / "sel")]
        )
        assert rc == 2
        assert f"line 3: influence value '{cell}'" in capsys.readouterr().err
        assert not (tmp_path / "sel").exists()

    @pytest.mark.parametrize("flag, value", [("--percent", "nan"), ("--budget", "nan")])
    def test_nan_budget_exits_two(self, tmp_path, capsys, flag, value):
        source = ["--dataset", "casestudy"] if flag == "--percent" else [
            "--requirements", str(write_reqs(tmp_path / "reqs.csv"))]
        rc = cli.run(["select", *source, flag, value, "--method", "dars", "--out", str(tmp_path / "sel")])
        assert rc == 2
        assert "budget must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "sel").exists()

    @pytest.mark.parametrize("value", ["-5", "0", "nan"])
    def test_bench_nonpositive_time_limit_exits_two(self, tmp_path, capsys, value):
        rc = cli.run(["bench", "--n", "4", "--time-limit", value, "--out", str(tmp_path)])
        assert rc == 2
        assert "time limit must be positive" in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists()

    def test_bad_cuts_exit_two(self, tmp_path):
        prefs = write_prefs(tmp_path / "prefs.csv")
        rc = cli.run(
            ["identify", "--preferences", str(prefs), "--cuts", "0.5", "--out", str(tmp_path)]
        )
        assert rc == 2

    def test_bad_percent_range_exits_two(self, tmp_path, capsys):
        rc = cli.run(
            ["sweep", "--dataset", "casestudy", "--percents", "9-1", "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "percent range" in capsys.readouterr().err

    def test_infeasible_selection_exits_one(self, tmp_path):
        # the bundled constraints force one of two requirements, so a zero
        # budget cannot be satisfied
        rc = cli.run(
            ["select", "--dataset", "casestudy", "--percent", "0",
             "--method", "pcbk", "--out", str(tmp_path / "sel")]
        )
        assert rc == 1
        report = json.loads((tmp_path / "sel" / "solution.json").read_text())
        assert report["status"] == "INFEASIBLE"
        assert report["objective"] is None
        assert report["selected"] == []


class TestIdentify:
    def test_writes_graph_and_report(self, tmp_path):
        paths = run_chain(tmp_path)
        vdg_text = paths["vdg"].read_text()
        assert vdg_text.startswith("# reqsel 0.1.0 identify config=")
        graph, names = load_vdg(vdg_text.splitlines(keepends=True))
        assert names == ("r1", "r2", "r3")
        assert set(graph.edges) == {(0, 1), (1, 0)}
        strength, quality = graph.edges[(0, 1)]
        assert strength == pytest.approx(0.6)
        assert quality == "+"

    def test_report_rows_and_significance(self, tmp_path):
        paths = run_chain(tmp_path)
        lines = paths["report"].read_text().splitlines()
        assert lines[1] == "from,to,eta,odds_ratio,ci_lower,ci_upper,significant"
        rows = {}
        for line in lines[2:]:
            src, dst, eta, omega, lower, upper, significant = line.split(",")
            rows[(src, dst)] = (float(eta), float(omega), int(significant))
        assert len(rows) == 6
        assert rows[("r1", "r2")] == (pytest.approx(0.6), pytest.approx(16.0), 1)
        assert rows[("r2", "r1")][2] == 1
        # the alternating row is independent of both others
        assert rows[("r1", "r3")][2] == 0
        assert rows[("r3", "r1")][2] == 0

    def test_wider_interval_drops_the_edge(self, tmp_path):
        prefs = write_prefs(tmp_path / "prefs.csv")
        rc = cli.run(
            ["identify", "--preferences", str(prefs), "--z", "10.0", "--out", str(tmp_path / "wide")]
        )
        assert rc == 0
        graph, _ = load_vdg((tmp_path / "wide" / "vdg.csv").open())
        assert graph.edges == {}

    @pytest.mark.parametrize("z", ["nan", "inf"])
    def test_non_finite_critical_value_exits_two(self, tmp_path, capsys, z):
        prefs = write_prefs(tmp_path / "prefs.csv")
        rc = cli.run(
            ["identify", "--preferences", str(prefs), "--z", z, "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_resampled_outputs_pinned(self, tmp_path):
        # 40 requirements over 80 users, two shared factors plus five sparse
        # rows, resampled to 300 users: the 1,560-row report holds both
        # verdicts and Haldane-corrected zero cells
        rng = np.random.default_rng(11)
        factor = rng.random((2, 80)) < 0.5
        shared = rng.random((40, 80)) < 0.7
        cells = np.where(shared, factor[np.arange(40) % 2], rng.random((40, 80)) < 0.5)
        cells[:5] = rng.random((5, 80)) < rng.uniform(0.05, 0.3, (5, 1))
        source = tmp_path / "source.csv"
        with open(source, "w") as fh:
            for i, row in enumerate(cells.astype(int)):
                fh.write(f"r{i + 1}," + ",".join(map(str, row)) + "\n")
        rs, ident = tmp_path / "rs", tmp_path / "id"
        args = ["resample", "--preferences", str(source), "--count", "300", "--seed", "7"]
        assert cli.run(args + ["--out", str(rs)]) == 0
        args = ["identify", "--preferences", str(rs / "samples.csv"), "--out", str(ident)]
        assert cli.run(args) == 0
        digests = {
            name: hashlib.sha256((ident / name).read_bytes()).hexdigest()
            for name in ("vdg.csv", "eells_report.csv")
        }
        assert digests == {
            "vdg.csv": "f5c3e3fed6ae1d5525444cd4c4f4a57d54a53f705eee391b17b9d9875bd89417",
            "eells_report.csv": "1f68942e13e982ee02b113860094b306c957c2a51be4d09436bb1b4ab8ac33b7",
        }


class TestResample:
    def test_outputs_and_seed_determinism(self, tmp_path):
        prefs = write_prefs(tmp_path / "prefs.csv")
        args = ["resample", "--preferences", str(prefs), "--count", "400", "--seed", "3"]
        assert cli.run(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.run(args + ["--out", str(tmp_path / "b")]) == 0

        samples = (tmp_path / "a" / "samples.csv").read_text()
        assert samples.startswith("# reqsel 0.1.0 resample config=")
        header = samples.splitlines()[1]
        assert header.split(",")[0] == "req_id"
        assert len(header.split(",")) == 401
        assert samples == (tmp_path / "b" / "samples.csv").read_text()

        report = json.loads((tmp_path / "a" / "resample.json").read_text())
        assert report["source_users"] == 100
        assert report["sampled_users"] == 400
        assert report["seed"] == 3
        assert report["psd_repaired"] is False
        assert 0.0 <= report["max_mean_gap"] < 0.2
        assert "_provenance" in report

    def test_different_seed_changes_samples(self, tmp_path):
        prefs = write_prefs(tmp_path / "prefs.csv")
        for seed, sub in (("3", "a"), ("4", "b")):
            cli.run(
                ["resample", "--preferences", str(prefs), "--count", "400",
                 "--seed", seed, "--out", str(tmp_path / sub)]
            )
        a = (tmp_path / "a" / "samples.csv").read_text().splitlines()[2:]
        b = (tmp_path / "b" / "samples.csv").read_text().splitlines()[2:]
        assert a != b

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        prefs = write_prefs(tmp_path / "prefs.csv")
        rc = cli.run(
            ["resample", "--preferences", str(prefs), "--count", "10", "--seed", "-1",
             "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestInfluenceCommand:
    def test_propagates_and_keeps_isolated_nodes(self, tmp_path):
        paths = run_chain(tmp_path)
        text = paths["influence"].read_text()
        assert text.startswith("# reqsel 0.1.0 influence config=")
        matrix, names = load_influence_matrix(text.splitlines(keepends=True))
        assert names == ("r1", "r2", "r3")
        assert matrix.influence[0, 1] == pytest.approx(0.6)
        assert matrix.influence[1, 0] == pytest.approx(0.6)
        assert matrix.influence[2, :].tolist() == [0.0, 0.0, 0.0]
        assert matrix.influence[:, 2].tolist() == [0.0, 0.0, 0.0]

    def test_repeated_node_id_exits_two(self, tmp_path, capsys):
        vdg = tmp_path / "vdg.csv"
        vdg.write_text("# nodes,a,b,a\nfrom,to,strength,quality\na,b,0.5,+\nb,a,0.25,-\n")
        rc = cli.run(["influence", "--vdg", str(vdg), "--out", str(tmp_path / "infl")])
        assert rc == 2
        assert "requirement id 'a' repeats" in capsys.readouterr().err
        assert not (tmp_path / "infl" / "influence.csv").exists()

    def test_ids_with_delimiters_and_quotes_round_trip(self, tmp_path):
        # run_chain's instance with ids that CSV has to quote
        ids = ("a,1", 'q"x', "r3")
        (tmp_path / "plain").mkdir()
        plain = run_chain(tmp_path / "plain")
        quoted = {}
        for key, name in (("prefs", "prefs.csv"), ("reqs", "reqs.csv")):
            with open(plain[key], newline="") as src, open(tmp_path / name, "w", newline="") as dst:
                writer = csv.writer(dst, lineterminator="\n")
                for record in csv.reader(src):
                    if record[0] in ("r1", "r2", "r3"):
                        record[0] = ids[int(record[0][1]) - 1]
                    writer.writerow(record)
            quoted[key] = tmp_path / name
        assert cli.run(["identify", "--preferences", str(quoted["prefs"]), "--out", str(tmp_path / "ident")]) == 0
        with open(tmp_path / "ident" / "eells_report.csv", newline="") as fh:
            report = list(csv.reader(fh))[1:]
        assert all(len(row) == 7 for row in report)
        assert {(row[0], row[1]) for row in report[1:]} == {(a, b) for a in ids for b in ids if a != b}

        vdg = tmp_path / "ident" / "vdg.csv"
        assert cli.run(["influence", "--vdg", str(vdg), "--out", str(tmp_path / "infl")]) == 0
        with open(tmp_path / "infl" / "influence.csv", newline="") as fh:
            matrix, names = load_influence_matrix(fh)
        assert names == ids
        with open(plain["influence"], newline="") as fh:
            assert matrix.influence.tolist() == load_influence_matrix(fh)[0].influence.tolist()

        rc = cli.run(
            ["select", "--requirements", str(quoted["reqs"]),
             "--influence", str(tmp_path / "infl" / "influence.csv"),
             "--percent", "60", "--method", "dars", "--out", str(tmp_path / "sel")]
        )
        assert rc == 0
        solution = json.loads((tmp_path / "sel" / "solution.json").read_text())
        assert solution["selected"] == ['q"x', "r3"]
        assert solution["objective"] == pytest.approx(5.2)


class TestSelect:
    def test_chain_select_reports_solution(self, tmp_path):
        paths = run_chain(tmp_path)
        rc = cli.run(
            ["select", "--requirements", str(paths["reqs"]), "--influence", str(paths["influence"]),
             "--percent", "60", "--method", "dars", "--out", str(tmp_path / "sel")]
        )
        assert rc == 0
        report = json.loads((tmp_path / "sel" / "solution.json").read_text())
        assert report["status"] == "OPTIMAL"
        assert report["proven"] is True
        # budget 12 rules out the 10+4 pair; keeping r2 discounts r1's twin
        assert report["selected"] == ["r2", "r3"]
        assert report["objective"] == pytest.approx(5.2)
        assert report["theta"]["r2"] == pytest.approx(0.6)
        assert report["_provenance"]["subcommand"] == "select"

    def test_vdg_flag_matches_influence_flag(self, tmp_path):
        paths = run_chain(tmp_path)
        for flag, value, sub in (
            ("--influence", paths["influence"], "via_matrix"),
            ("--vdg", paths["vdg"], "via_graph"),
        ):
            rc = cli.run(
                ["select", "--requirements", str(paths["reqs"]), flag, str(value),
                 "--percent", "60", "--method", "dars", "--out", str(tmp_path / sub)]
            )
            assert rc == 0
        a = json.loads((tmp_path / "via_matrix" / "solution.json").read_text())
        b = json.loads((tmp_path / "via_graph" / "solution.json").read_text())
        assert a["selected"] == b["selected"]
        assert a["objective"] == pytest.approx(b["objective"])

    def test_casestudy_full_budget_optimum(self, tmp_path):
        rc = cli.run(
            ["select", "--dataset", "casestudy", "--percent", "100",
             "--method", "pcbk", "--out", str(tmp_path)]
        )
        assert rc == 0
        report = json.loads((tmp_path / "solution.json").read_text())
        assert report["objective"] == pytest.approx(272.0)
        assert "r19" not in report["selected"]
        assert "r20" not in report["selected"]

    def test_readme_casestudy_dars_matches_sweep(self, tmp_path):
        # without --vdg or --influence DARS runs on a zero influence matrix,
        # the instance `sweep --dataset casestudy` solves
        rc = cli.run(
            ["select", "--dataset", "casestudy", "--percent", "50",
             "--method", "dars", "--out", str(tmp_path / "sel")]
        )
        assert rc == 0
        report = json.loads((tmp_path / "sel" / "solution.json").read_text())
        assert report["status"] == "OPTIMAL"
        rc = cli.run(
            ["sweep", "--dataset", "casestudy", "--percents", "50", "--methods", "dars",
             "--format", "json", "--out", str(tmp_path / "sw")]
        )
        assert rc == 0
        obj = json.loads((tmp_path / "sw" / "sweep.json").read_text())
        (row,) = obj["rows"]
        ids = obj["requirement_ids"]
        assert report["selected"] == [ids[i] for i, bit in enumerate(row["selection"]) if bit]

    def test_node_limit_exits_three_with_incumbent(self, tmp_path):
        # a BK price instance that runs far past 1,000 nodes before it proves
        sim = tmp_path / "sim"
        assert cli.run(
            ["simulate", "--n", "24", "--vdl", "0.1", "--nvdl", "0.3", "--pdl", "0.05",
             "--npdl", "0.2", "--seed", "3", "--out", str(sim)]
        ) == 0
        rc = cli.run(
            ["select", "--requirements", str(sim / "requirements.csv"), "--method", "bk",
             "--percent", "50", "--node-limit", "1000", "--out", str(tmp_path / "sel")]
        )
        assert rc == 3
        report = json.loads((tmp_path / "sel" / "solution.json").read_text())
        assert report["status"] == "FEASIBLE"
        assert report["proven"] is False
        assert report["selected"]
        assert report["objective"] <= report["stats"]["root_bound"]

    # a simulated DARS instance: every theta entry is an influence value
    # with no sum in it, so it is pinned exactly; objective and root bound
    # pass through BLAS and numpy sums
    PINNED_THETA = {
        "r4": 0.8841343875292297, "r5": 0.03007458678386743, "r7": 0.38699669894695954,
        "r8": 0.7965447593238504, "r9": 0.27521005922646635, "r13": 0.8393479912248731,
    }

    @pytest.mark.parametrize(
        "limit, rc, expected",
        [
            ([], 0, ("OPTIMAL", True, 90, ["r2", "r5", "r7", "r11", "r12"], 38.044728928414244,
                     {})),
            (["--node-limit", "5"], 3,
             ("FEASIBLE", False, 8, ["r5", "r7", "r9", "r11", "r12"], 36.26757315501587,
              {"r4": 0.5148090255683649})),
        ],
        ids=["unlimited", "node-limit-5"],
    )
    def test_simulated_dars_results_pinned(self, tmp_path, limit, rc, expected):
        sim = tmp_path / "sim"
        assert cli.run(
            ["simulate", "--n", "14", "--vdl", "0.1", "--nvdl", "0.3", "--pdl", "0.05",
             "--npdl", "0.2", "--seed", "1", "--out", str(sim)]
        ) == 0
        assert cli.run(
            ["select", "--requirements", str(sim / "requirements.csv"),
             "--constraints", str(sim / "constraints.json"),
             "--influence", str(sim / "influence.csv"), "--method", "dars",
             "--budget", "20", *limit, "--out", str(tmp_path / "sel")]
        ) == rc
        report = json.loads((tmp_path / "sel" / "solution.json").read_text())
        status, proven, nodes, selected, objective, theta_changes = expected
        assert report["status"] == status
        assert report["proven"] is proven
        assert report["stats"]["nodes"] == nodes
        assert report["selected"] == selected
        assert report["objective"] == pytest.approx(objective, abs=1e-12)
        assert report["stats"]["root_bound"] == pytest.approx(50.69013887552267, abs=1e-12)
        theta = {f"r{i}": 0.0 for i in range(1, 15)} | self.PINNED_THETA | theta_changes
        assert report["theta"] == theta

    def test_bk_warns_when_precedence_present(self, tmp_path, capsys):
        rc = cli.run(
            ["select", "--dataset", "casestudy", "--percent", "50",
             "--method", "bk", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert "BK ignores precedence" in capsys.readouterr().err

    def test_progress_goes_to_stderr_only(self, tmp_path, capsys):
        cli.run(
            ["select", "--dataset", "casestudy", "--percent", "50",
             "--method", "sbk", "--out", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "solved in" in captured.err
        assert f"wrote {tmp_path / 'solution.json'}" in captured.err


class TestSweep:
    def test_csv_outputs(self, tmp_path):
        rc = cli.run(
            ["sweep", "--dataset", "casestudy", "--percents", "0,50",
             "--methods", "pcbk,dars", "--out", str(tmp_path)]
        )
        assert rc == 0
        wide = (tmp_path / "sweep.csv").read_text().splitlines()
        assert wide[0].startswith("# reqsel 0.1.0 sweep config=")
        assert wide[1].split(",")[:3] == ["percent", "method", "status"]
        assert len(wide) == 2 + 4
        assert wide[2].split(",")[2] == "INFEASIBLE"
        long = (tmp_path / "sweep_long.csv").read_text().splitlines()
        assert len(long) == 2 + 12

    def test_json_format(self, tmp_path):
        rc = cli.run(
            ["sweep", "--dataset", "casestudy", "--percents", "25,50", "--methods", "sbk",
             "--format", "json", "--out", str(tmp_path)]
        )
        assert rc == 0
        obj = json.loads((tmp_path / "sweep.json").read_text())
        assert obj["_provenance"]["subcommand"] == "sweep"
        assert len(obj["rows"]) == 2
        assert not (tmp_path / "sweep.csv").exists()

    def test_all_infeasible_exits_one(self, tmp_path):
        rc = cli.run(
            ["sweep", "--dataset", "casestudy", "--percents", "0", "--methods", "pcbk",
             "--out", str(tmp_path)]
        )
        assert rc == 1

    def test_node_limit_exits_three_unless_all_infeasible(self, tmp_path):
        # one node proves the empty budget infeasible but cannot close 50%
        base = ["sweep", "--dataset", "casestudy", "--methods", "pcbk", "--node-limit", "1"]
        assert cli.run([*base, "--percents", "0,50", "--out", str(tmp_path / "a")]) == 3
        rows = (tmp_path / "a" / "sweep.csv").read_text().splitlines()[2:]
        assert [r.split(",")[2] for r in rows] == ["INFEASIBLE", "FEASIBLE"]
        assert cli.run([*base, "--percents", "0", "--out", str(tmp_path / "b")]) == 1

    def test_unknown_method_exits_two(self, tmp_path, capsys):
        rc = cli.run(
            ["sweep", "--dataset", "casestudy", "--methods", "pcbk,newton",
             "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "unknown method" in capsys.readouterr().err


class TestSimulate:
    ARGS = ["simulate", "--n", "8", "--vdl", "0.25", "--nvdl", "0.5",
            "--pdl", "0.1", "--npdl", "0.3", "--seed", "11"]

    def test_writes_a_loadable_instance(self, tmp_path):
        rc = cli.run(self.ARGS + ["--out", str(tmp_path)])
        assert rc == 0

        reqs = load_requirements((tmp_path / "requirements.csv").open())
        ids = [r.id for r in reqs]
        assert len(reqs) == 8

        graph, names = load_vdg((tmp_path / "vdg.csv").open())
        assert list(names) == ids
        assert len(graph.edges) == 14
        assert sum(1 for _, quality in graph.edges.values() if quality == "-") == 7

        matrix, inf_names = load_influence_matrix((tmp_path / "influence.csv").open())
        assert list(inf_names) == ids

        records = load_constraints((tmp_path / "constraints.json").open(), ids)
        assert len(records.constraints) == 6

        instance = json.loads((tmp_path / "instance.json").read_text())
        assert instance["n"] == 8
        assert instance["seed"] == 11
        assert instance["targets"] == {"vdl": 0.25, "nvdl": 0.5, "pdl": 0.1, "npdl": 0.3}
        assert instance["measured"]["vdl"] == pytest.approx(0.25)
        assert instance["measured"]["nvdl"] == pytest.approx(0.5)
        assert instance["constraint_mode"] == "BUDGET_COST"
        assert instance["budget"] == pytest.approx(0.5 * sum(r.cost for r in reqs))

    def test_rerun_is_byte_identical(self, tmp_path):
        cli.run(self.ARGS + ["--out", str(tmp_path / "a")])
        cli.run(self.ARGS + ["--out", str(tmp_path / "b")])
        for name in ("requirements.csv", "vdg.csv", "constraints.json",
                     "influence.csv", "instance.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_simulated_instance_feeds_select(self, tmp_path):
        cli.run(self.ARGS + ["--out", str(tmp_path)])
        instance = json.loads((tmp_path / "instance.json").read_text())
        rc = cli.run(
            ["select",
             "--requirements", str(tmp_path / "requirements.csv"),
             "--constraints", str(tmp_path / "constraints.json"),
             "--influence", str(tmp_path / "influence.csv"),
             "--budget", str(instance["budget"]),
             "--method", "dars", "--out", str(tmp_path / "sel")]
        )
        assert rc == 0
        report = json.loads((tmp_path / "sel" / "solution.json").read_text())
        assert report["status"] == "OPTIMAL"

    def test_bad_range_flag_exits_two(self, tmp_path, capsys):
        rc = cli.run(
            ["simulate", "--n", "6", "--seed", "1", "--cost-range", "1,2,3",
             "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "--cost-range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--cost-range", "nan,3"), ("--cost-range", "1,inf"), ("--value-range", "1,nan")]
    )
    def test_non_finite_range_exits_two(self, tmp_path, capsys, flag, value):
        rc = cli.run(["simulate", "--n", "6", "--seed", "1", flag, value, "--out", str(tmp_path)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        rc = cli.run(["simulate", "--n", "6", "--seed", "-1", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_bad_budget_fraction_exits_two(self, tmp_path, capsys, value):
        rc = cli.run(
            ["simulate", "--n", "6", "--seed", "1", "--budget-fraction", value,
             "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        assert "budget fraction must be finite and non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestBench:
    def test_grid_rows(self, tmp_path):
        rc = cli.run(
            ["bench", "--n", "6", "--seeds", "0,1", "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert lines[0].startswith("# reqsel 0.1.0 bench config=")
        assert lines[1].split(",")[:2] == ["n", "seed"]
        assert len(lines) == 2 + 2
        for row in lines[2:]:
            assert row.split(",")[0] == "6"


class TestExportLp:
    def test_emits_parseable_model(self, tmp_path):
        paths = run_chain(tmp_path)
        rc = cli.run(
            ["export-lp", "--requirements", str(paths["reqs"]),
             "--influence", str(paths["influence"]), "--percent", "60",
             "--method", "dars", "--out", str(tmp_path / "lp")]
        )
        assert rc == 0
        text = (tmp_path / "lp" / "model.lp").read_text()
        assert text.startswith("\\ reqsel 0.1.0 export-lp config=")
        model = parse_lp(text.splitlines(keepends=True))
        assert len(model.variables) == 4 * 3
        assert "price" in {c.name for c in model.constraints}

    def test_simplify_drops_the_gate_variables(self, tmp_path):
        paths = run_chain(tmp_path)
        base = ["export-lp", "--requirements", str(paths["reqs"]),
                "--influence", str(paths["influence"]), "--percent", "60",
                "--method", "dars"]
        cli.run(base + ["--out", str(tmp_path / "plain")])
        cli.run(base + ["--simplify", "--out", str(tmp_path / "small")])
        plain = parse_lp((tmp_path / "plain" / "model.lp").open())
        small = parse_lp((tmp_path / "small" / "model.lp").open())
        assert len(plain.variables) == 12
        assert len(small.variables) == 9

    def test_cost_mode_names_the_budget_row(self, tmp_path):
        paths = run_chain(tmp_path)
        rc = cli.run(
            ["export-lp", "--requirements", str(paths["reqs"]), "--budget", "5",
             "--method", "bk", "--out", str(tmp_path / "lp")]
        )
        assert rc == 0
        model = parse_lp((tmp_path / "lp" / "model.lp").open())
        assert "budget" in {c.name for c in model.constraints}


class TestProvenance:
    def test_output_directory_does_not_change_bytes(self, tmp_path):
        prefs = write_prefs(tmp_path / "prefs.csv")
        for sub in ("a", "b"):
            cli.run(["identify", "--preferences", str(prefs), "--out", str(tmp_path / sub)])
        for name in ("vdg.csv", "eells_report.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_config_change_shows_in_the_stamp(self, tmp_path):
        prefs = write_prefs(tmp_path / "prefs.csv")
        cli.run(["identify", "--preferences", str(prefs), "--out", str(tmp_path / "a")])
        cli.run(["identify", "--preferences", str(prefs), "--z", "2.5", "--out", str(tmp_path / "b")])
        stamp_a = (tmp_path / "a" / "vdg.csv").read_text().splitlines()[0]
        stamp_b = (tmp_path / "b" / "vdg.csv").read_text().splitlines()[0]
        assert stamp_a != stamp_b
        assert stamp_a.split("config=")[0] == stamp_b.split("config=")[0]

    def test_input_files_enter_the_stamp_by_content_not_path(self, tmp_path, monkeypatch):
        chain = run_chain(tmp_path)
        flags = {"--requirements": chain["reqs"], "--influence": chain["influence"]}

        def select(cwd, paths, out):
            monkeypatch.chdir(cwd)
            args = [a for flag, path in flags.items() for a in (flag, str(paths(path)))]
            assert cli.run(["select", *args, "--budget", "3", "--method", "dars", "--out", str(out)]) == 0
            return (out / "solution.json").read_bytes()

        relative = select(tmp_path, lambda p: p.relative_to(tmp_path), tmp_path / "rel")
        absolute = select(tmp_path / "infl", lambda p: p.resolve(), tmp_path / "abs")
        assert relative == absolute

        # one changed byte of an input changes the stamp and nothing else
        text = chain["reqs"].read_text()
        chain["reqs"].write_text(text.replace("gamma", "gammA"))
        before = json.loads(relative)
        after = json.loads(select(tmp_path, lambda p: p.resolve(), tmp_path / "changed"))
        assert before.pop("_provenance")["config"] != after.pop("_provenance")["config"]
        assert before == after

    def test_only_an_explicit_limit_enters_the_stamp(self):
        parser = cli.build_parser()
        base = ["select", "--dataset", "casestudy", "--percent", "50", "--method", "sbk"]
        default = parser.parse_args(base)
        explicit = parser.parse_args([*base, "--node-limit", str(cli.DEFAULT_NODE_LIMIT)])
        assert "node_limit" not in vars(default) and "time_limit" not in vars(default)
        assert cli._config_hash(default) != cli._config_hash(explicit)

    def test_every_json_carries_provenance(self, tmp_path):
        cli.run(
            ["sweep", "--dataset", "casestudy", "--percents", "50", "--methods", "sbk",
             "--format", "json", "--out", str(tmp_path)]
        )
        obj = json.loads((tmp_path / "sweep.json").read_text())
        prov = obj["_provenance"]
        assert prov["tool"] == "reqsel 0.1.0"
        assert len(prov["config"]) == 12
