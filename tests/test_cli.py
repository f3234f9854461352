import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import bmameta
from bmameta.cli import main


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def five_study_csv(tmp_path):
    return write(tmp_path / "five.csv", (
        "effect,se,label\n"
        "1.2,0.3,Alpha\n"
        "0.8,0.25,Beta\n"
        "1.5,0.35,Gamma\n"
        "0.9,0.3,Delta\n"
        "1.1,0.28,Epsilon\n"
    ))


@pytest.fixture
def corpus_csv(tmp_path):
    rng = np.random.default_rng(31)
    lines = ["comparison_id,effect,se"]
    for c in range(12):
        k = int(rng.integers(10, 14))
        delta = float(rng.normal(0, 0.5))
        tau = float(rng.gamma(1.6, 0.3))
        for _ in range(k):
            se = float(rng.uniform(0.1, 0.3))
            y = float(rng.normal(delta, np.sqrt(tau**2 + se**2)))
            lines.append(f"C{c:02d},{y:.6f},{se:.6f}")
    return write(tmp_path / "corpus.csv", "\n".join(lines) + "\n")


class TestAnalyze:
    def test_end_to_end_json(self, five_study_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["analyze", five_study_csv, "--subfield", "Oral Health",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert [m["name"] for m in report["models"]] == [
            "fixed_H0", "fixed_H1", "random_H0", "random_H1",
        ]
        assert report["config"]["delta_prior"] == "t(0.0,0.51,5.0)"
        assert report["config"]["subfield_matched"] is True
        assert "threads" not in report["config"] and "seed" not in report["config"]
        probs = [m["posterior_prob"] for m in report["models"]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        assert report["inclusion"]["effect_bf"] > 1.0
        assert report["estimates"]["averaged_delta"]["mean"] > 0.5

    @pytest.mark.parametrize("flag", ["--threads", "--seed", "--scheme"])
    def test_no_op_flags_are_gone(self, five_study_csv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", five_study_csv, flag, "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_single_null_study_favors_h0f(self, tmp_path):
        csv = write(tmp_path / "one.csv", "effect,se\n0.0,1.0\n")
        out = tmp_path / "r.json"
        assert main(["analyze", csv, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        probs = {m["name"]: m["posterior_prob"] for m in report["models"]}
        assert probs["fixed_H0"] > probs["fixed_H1"]

    def test_overwhelming_heterogeneity_flags_infinite_bf(self, tmp_path):
        # the heterogeneity log BF exceeds the float range
        csv = write(tmp_path / "spread.csv", "effect,se\n-3,0.05\n3,0.05\n0,0.05\n5,0.05\n")
        out = tmp_path / "r.json"
        assert main(["analyze", csv, "--out", str(out)]) == 0
        inclusion = json.loads(out.read_text())["inclusion"]
        assert inclusion["heterogeneity_bf_infinite"] is True
        assert inclusion["heterogeneity_bf"] is None
        assert inclusion["heterogeneity_posterior_prob"] <= 1.0

    def test_empty_csv_is_input_error(self, tmp_path):
        csv = write(tmp_path / "empty.csv", "")
        assert main(["analyze", csv]) == 2

    def test_header_only_csv_is_input_error(self, tmp_path):
        csv = write(tmp_path / "hdr.csv", "effect,se\n")
        assert main(["analyze", csv]) == 2

    def test_malformed_number_reports_line(self, tmp_path, caplog):
        csv = write(tmp_path / "bad.csv", "effect,se\n0.5,0.2\noops,0.3\n")
        assert main(["analyze", csv]) == 2
        assert "line 3" in caplog.text

    def test_nan_rejected_with_line(self, tmp_path, caplog):
        csv = write(tmp_path / "nan.csv", "effect,se\nnan,0.2\n")
        assert main(["analyze", csv]) == 2
        assert "line 2" in caplog.text

    def test_nonpositive_se_rejected(self, tmp_path):
        csv = write(tmp_path / "se.csv", "effect,se\n0.5,0.0\n")
        assert main(["analyze", csv]) == 2

    def test_standard_errors_that_overflow_their_square_raise_no_warning(self, tmp_path, capsys,
                                                                       caplog):
        # se**2 overflows at se ~1e160: formed under np.errstate, an
        # infinite variance is a zero likelihood, with no numpy warning
        csv = write(tmp_path / "bigse.csv", "effect,se\n0.1,1e160\n0.2,2e160\n0,1.5e160\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["analyze", csv, "--subfield", "Oral Health"])
        assert code == 3
        assert _one_error(caplog) == "every model has zero marginal likelihood"
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err and "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2 (scale-free numerics): se**2 overflows "
                       "although each log-likelihood, about -1100, is representable")
    def test_standard_errors_that_overflow_their_square_still_have_evidence(self, tmp_path):
        csv = write(tmp_path / "bigse.csv", "effect,se\n0.1,1e160\n0.2,2e160\n0,1.5e160\n")
        assert main(["analyze", csv, "--subfield", "Oral Health"]) == 0

    @pytest.mark.parametrize("magnitude", ["1e160", "1e200"])
    def test_effects_that_overflow_the_likelihood_end_in_one_error(self, tmp_path, magnitude, capsys, caplog):
        # the likelihood's squares overflow to inf, a zero likelihood under
        # every model; numpy's own overflow warnings stay off stderr
        csv = write(tmp_path / "huge.csv", f"effect,se\n{magnitude},1\n-{magnitude},1\n{magnitude},1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["analyze", csv])
        assert code in (2, 3)
        assert _one_error(caplog) == "every model has zero marginal likelihood"
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err and "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_summary_far_from_the_marginal_likelihood_is_a_warning(self, tmp_path, capsys, caplog):
        # at +-1e100 the tau grid's normalization exceeds the marginal
        # likelihood by more than exp(709): reported, not an OverflowError
        csv = write(tmp_path / "far.csv", "effect,se\n1e100,1\n-1e100,1\n1e100,1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["analyze", csv]) == 0
        assert any("grid normalization differs from the marginal likelihood by inf" in r.getMessage()
                   for r in caplog.records if r.levelname == "WARNING")
        assert "Traceback" not in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("scale", [1e-18, 1e151])
    def test_bayes_factors_do_not_depend_on_the_scale(self, tmp_path, scale, capsys):
        # effects, se and both prior scales times `scale`: below 1e-12 the
        # tau prior needs lattice points under that floor, and at 1e151 its
        # upper quantiles square past the float range
        def run(c):
            csv = write(tmp_path / f"scaled{c:g}.csv", "effect,se\n" + "".join(
                f"{y * c:.16e},{s * c:.16e}\n" for y, s in ((0.12, 0.21), (0.031, 0.15), (0.05, 0.33))))
            out = tmp_path / f"scaled{c:g}.json"
            assert main(["analyze", csv, "--delta-prior", f"t(0.0,{0.43 * c:.16e},5.0)",
                         "--tau-prior", f"invgamma(1.71,{0.4 * c:.16e})", "--out", str(out)]) == 0
            return json.loads(out.read_text())["inclusion"]

        unit = run(1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scaled = run(scale)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in capsys.readouterr().err
        for key in ("effect_bf", "heterogeneity_bf"):
            assert scaled[key] == pytest.approx(unit[key], rel=1e-12)

    def test_missing_file(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.csv")]) == 2

    def test_column_remap(self, tmp_path):
        csv = write(tmp_path / "mapped.csv", "yi,sei\n0.4,0.2\n0.5,0.25\n0.3,0.22\n")
        out = tmp_path / "r.json"
        code = main(["analyze", csv, "--map", "effect=yi,se=sei", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["input"]["n_studies"] == 3

    def test_raw_row_with_degenerate_arms_is_input_error(self, tmp_path, caplog):
        csv = write(tmp_path / "deg.csv",
                    "n1,m1,sd1,n2,m2,sd2\n30,1.0,1.0,30,0.2,1.1\n10,0.0,0.0,10,0.0,0.0\n")
        assert main(["analyze", csv]) == 2
        assert "line 3" in caplog.text

    def test_raw_columns(self, tmp_path):
        csv = write(tmp_path / "raw.csv",
                    "n1,m1,sd1,n2,m2,sd2\n30,1.0,1.0,30,0.2,1.1\n25,0.9,0.8,26,0.1,0.9\n"
                    "40,1.1,1.2,38,0.3,1.0\n")
        out = tmp_path / "r.json"
        assert main(["analyze", csv, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["input"]["n_studies"] == 3
        assert all(s["se"] > 0 for s in report["input"]["studies"])

    def test_explicit_priors_and_model_priors(self, five_study_csv, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "analyze", five_study_csv,
            "--delta-prior", "normal(0.0,0.56)",
            "--tau-prior", "gamma(1.59,0.26)",
            "--model-priors", "0.4,0.1,0.4,0.1",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["delta_prior"] == "normal(0.0,0.56)"
        assert [m["prior_prob"] for m in report["models"]] == [0.4, 0.1, 0.4, 0.1]

    def test_bad_prior_string_is_input_error(self, five_study_csv):
        assert main(["analyze", five_study_csv, "--delta-prior", "normal(0,0.5)"]) == 2

    def test_halfnormal_delta_prior_far_from_the_prior(self, tmp_path):
        # a closed form; the quadrature over delta it replaces did not converge here
        csv = write(tmp_path / "far.csv", "effect,se\n300.0,0.1\n301.0,0.1\n")
        out = tmp_path / "r.json"
        assert main(["analyze", csv, "--delta-prior", "halfnormal(0.57)",
                     "--tau-prior", "invgamma(1.71,0.4)", "--out", str(out)]) == 0
        fixed_h1 = json.loads(out.read_text())["models"][1]
        assert fixed_h1["name"] == "fixed_H1"
        # the 30-digit mpmath value of this log marginal
        assert fixed_h1["log_marginal"] == pytest.approx(-136883.6675789702, rel=1e-12)

    @pytest.mark.parametrize("prior", ["gamma(1.59,0.26)", "invgamma(1.26,0.24)"])
    def test_gamma_families_are_heterogeneity_only(self, five_study_csv, prior, tmp_path, caplog):
        assert main(["analyze", five_study_csv, "--delta-prior", prior]) == 2
        assert "point, normal, t, cauchy, uniform, halfnormal" in caplog.text
        assert "heterogeneity-only" in caplog.text
        out = tmp_path / "r.json"
        assert main(["analyze", five_study_csv, "--tau-prior", prior, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["tau_prior"] == prior

    def test_bad_model_priors(self, five_study_csv):
        assert main(["analyze", five_study_csv, "--model-priors", "0.5,0.5"]) == 2
        assert main(["analyze", five_study_csv, "--model-priors", "0.5,0.2,0.2,0.2"]) == 2

    def test_tol_override(self, five_study_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(["analyze", five_study_csv, "--tol", "1e-6",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["tol"] == 1e-6

    @pytest.mark.parametrize("tol", ["0", "nan", "1", "-0.5", "inf"])
    def test_tol_out_of_range_is_usage_error(self, five_study_csv, tol, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", five_study_csv, "--tol", tol])
        assert exc.value.code == 2
        assert "argument --tol: must be finite with 0 < tol < 1" in capsys.readouterr().err

    def test_sequential(self, tmp_path):
        csv = write(tmp_path / "three.csv", "effect,se\n0.4,0.3\n0.6,0.3\n0.5,0.25\n")
        out = tmp_path / "r.json"
        assert main(["analyze", csv, "--sequential", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["sequential"]) == 3
        final = report["sequential"][-1]["posterior_probs"]
        batch = [m["posterior_prob"] for m in report["models"]]
        assert final == pytest.approx(batch, abs=1e-6)

    def test_sequential_flags_infinite_bayes_factors(self, tmp_path):
        # the effect log BF of the longer prefixes exceeds the float range
        rng = np.random.default_rng(3)
        rows = "".join(f"{1 + 1e-8 * float(z)!r},1e-08\n" for z in rng.normal(size=45))
        csv = write(tmp_path / "tight.csv", "effect,se\n" + rows)
        out = tmp_path / "r.json"
        assert main(["analyze", csv, "--sequential", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        entries = report["sequential"]
        assert list(entries[-1])[2:] == list(report["inclusion"])
        assert {k: entries[-1][k] for k in report["inclusion"]} == report["inclusion"]
        infinite = [e["effect_bf_infinite"] for e in entries]
        assert infinite[0] is False and infinite[-1] is True
        for entry, flag in zip(entries, infinite):
            assert (entry["effect_bf"] is None) == flag
            assert entry["effect_posterior_prob"] <= 1.0

    def test_determinism_byte_identical(self, five_study_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", five_study_csv, "--out", str(a)]) == 0
        assert main(["analyze", five_study_csv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_forest_svg(self, five_study_csv, tmp_path):
        svg_path = tmp_path / "forest.svg"
        out = tmp_path / "r.json"
        code = main(["analyze", five_study_csv, "--subfield", "Oral Health",
                     "--forest", str(svg_path), "--out", str(out)])
        assert code == 0
        root = ET.fromstring(svg_path.read_text())
        assert root.tag.endswith("svg")
        text = svg_path.read_text()
        for needle in ("Alpha", "Epsilon", "Fixed", "Random", "Averaged"):
            assert needle in text

    def test_forest_without_out_prints_the_report(self, five_study_csv, tmp_path, capsys):
        svg_path = tmp_path / "forest.svg"
        assert main(["analyze", five_study_csv, "--forest", str(svg_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [m["name"] for m in report["models"]][0] == "fixed_H0"
        assert ET.fromstring(svg_path.read_text()).tag.endswith("svg")

    def test_unknown_subfield_warns_and_uses_pooled(self, five_study_csv, tmp_path, caplog):
        out = tmp_path / "r.json"
        assert main(["analyze", five_study_csv, "--subfield", "Astral Projection",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["subfield_matched"] is False
        assert report["config"]["delta_prior"] == "t(0.0,0.43,5.0)"
        assert "not in catalog" in caplog.text


class TestFitPriors:
    def test_end_to_end(self, corpus_csv, tmp_path):
        out = tmp_path / "cand.json"
        assert main(["fit-priors", corpus_csv, "--out", str(out)]) == 0
        cand = json.loads(out.read_text())
        assert len(cand["delta_priors"]) == 3
        assert len(cand["tau_priors"]) == 4
        prov = cand["provenance"]
        assert prov["retained_comparisons"] + prov["dropped_few_studies"] + \
            prov["dropped_non_estimable"] == prov["input_comparisons"]

    def test_blank_cells_count_non_estimable(self, tmp_path):
        rng = np.random.default_rng(17)
        lines = ["comparison_id,effect,se"]
        lines.append("A,,")  # non-estimable row
        for i in range(11):
            lines.append(f"A,0.{i}1,0.2")
        for c in range(4):
            delta, tau = float(rng.normal(0, 0.5)), float(rng.uniform(0.2, 0.6))
            for _ in range(11):
                se = float(rng.uniform(0.1, 0.25))
                y = float(rng.normal(delta, np.sqrt(tau**2 + se**2)))
                lines.append(f"B{c},{y:.6f},{se:.6f}")
        csv = write(tmp_path / "c.csv", "\n".join(lines) + "\n")
        out = tmp_path / "cand.json"
        assert main(["fit-priors", csv, "--min-studies", "2", "--out", str(out)]) == 0
        prov = json.loads(out.read_text())["provenance"]
        assert prov["dropped_non_estimable"] == 1
        assert prov["retained_comparisons"] == 4
        assert prov["input_studies"] == 56  # 55 parsed + 1 blank

    @pytest.mark.parametrize("effects", [
        (0.2,) * 10,  # every tau-hat is 0, so the floor-filtered tau sample is empty
        (0.3, -0.3) * 5,  # every comparison has the same estimates: zero variance
    ])
    def test_degenerate_training_data_is_input_error(self, tmp_path, effects):
        rows = [f"C{c:02d},{y},0.1" for c in range(12) for y in effects]
        csv = write(tmp_path / "flat.csv", "comparison_id,effect,se\n" + "\n".join(rows) + "\n")
        assert main(["fit-priors", csv]) == 2

    def test_all_filtered_is_computational_error(self, tmp_path):
        csv = write(tmp_path / "small.csv",
                    "comparison_id,effect,se\nA,0.1,0.2\nA,0.2,0.2\nB,0.3,0.2\n")
        assert main(["fit-priors", csv]) == 3

    def test_missing_comparison_id(self, tmp_path):
        csv = write(tmp_path / "noid.csv", "effect,se\n0.1,0.2\n")
        assert main(["fit-priors", csv]) == 2

    @pytest.mark.parametrize("floor", ["nan", "inf", "-1"])
    def test_tau_floor_out_of_range_is_usage_error(self, corpus_csv, floor, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit-priors", corpus_csv, "--tau-floor", floor])
        assert exc.value.code == 2
        assert "argument --tau-floor: must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1", "0", "-3", "2.5", "x"])
    def test_min_studies_below_two_is_usage_error(self, corpus_csv, value, capsys):
        # prepare_training needs two studies to estimate tau
        with pytest.raises(SystemExit) as exc:
            main(["fit-priors", corpus_csv, "--min-studies", value])
        assert exc.value.code == 2
        assert "argument --min-studies:" in capsys.readouterr().err

    def test_min_studies_of_two_is_accepted(self, corpus_csv, tmp_path):
        assert main(["fit-priors", corpus_csv, "--min-studies", "2", "--out", str(tmp_path / "c.json")]) == 0


class TestRank:
    @pytest.fixture
    def cand_json(self, tmp_path):
        from bmameta import general_candidate_set
        from bmameta.reports import dumps
        path = tmp_path / "cand.json"
        path.write_text(dumps(general_candidate_set().to_dict()) + "\n")
        return str(path)

    def test_modes_and_determinism(self, corpus_csv, cand_json, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code = main(["rank", corpus_csv, "--candidates", cand_json,
                     "--mode", "model-types", "--out", str(a)])
        assert code == 0
        assert main(["rank", corpus_csv, "--candidates", cand_json,
                     "--mode", "model-types", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        table = json.loads(a.read_text())
        n = table["n_evaluated"]
        for col in range(4):
            assert sum(r["rank_counts"][col] for r in table["rows"]) == n

    def test_inclusion_mode(self, corpus_csv, cand_json, tmp_path):
        out = tmp_path / "incl.json"
        assert main(["rank", corpus_csv, "--candidates", cand_json,
                     "--mode", "inclusion", "--out", str(out)]) == 0
        summary = json.loads(out.read_text())
        assert summary["effect_evidence_for"] + summary["effect_evidence_against"] \
            == summary["n_evaluated"]

    def test_subfield_column_is_ignored(self, corpus_csv, cand_json, tmp_path):
        with open(corpus_csv) as fh:
            header, *rows = fh.read().splitlines()
        topics = ["Oral Health", "", "Urology"]
        with_col = write(tmp_path / "with_subfield.csv", "\n".join(
            [header.replace("comparison_id,", "comparison_id,subfield,")]
            + [r.replace(",", f",{topics[i % 3]},", 1) for i, r in enumerate(rows)]) + "\n")
        for mode in ("configs", "model-types", "parameter-priors", "inclusion"):
            a, b = tmp_path / f"{mode}.a.json", tmp_path / f"{mode}.b.json"
            assert main(["rank", corpus_csv, "--candidates", cand_json,
                         "--mode", mode, "--out", str(a)]) == 0
            assert main(["rank", with_col, "--candidates", cand_json,
                         "--mode", mode, "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_parameter_priors_mode(self, corpus_csv, cand_json, tmp_path):
        out = tmp_path / "pp.json"
        assert main(["rank", corpus_csv, "--candidates", cand_json,
                     "--mode", "parameter-priors", "--out", str(out)]) == 0
        table = json.loads(out.read_text())
        groups = {r["group"] for r in table["rows"]}
        assert groups == {"delta", "tau"}

    def test_inclusion_log_bf_beyond_float_range_is_finite(self, cand_json, tmp_path):
        # the heterogeneity BF of "spread" overflows; its log does not
        rows = [f"spread,{y},0.05" for y in (-3, 3, 0, 5)]
        rows += [f"calm,{y},0.2" for y in (0.1, 0.3, 0.2, 0.4)]
        corpus = write(tmp_path / "c.csv", "comparison_id,effect,se\n" + "\n".join(rows) + "\n")
        out = tmp_path / "incl.json"
        assert main(["rank", corpus, "--candidates", cand_json,
                     "--mode", "inclusion", "--out", str(out)]) == 0
        summary = json.loads(out.read_text())
        log_bf = dict(zip(summary["ids"], summary["log_bf_heterogeneity"]))
        assert isinstance(log_bf["spread"], float) and log_bf["spread"] > 700
        assert summary["heterogeneity_evidence_for"] >= 1

    @pytest.mark.parametrize("option, value", [
        ("--tol", "0"),
        ("--tol", "nan"),
        ("--max-failure-fraction", "-0.1"),
        ("--max-failure-fraction", "1.5"),
        ("--threads", "0"),
        ("--min-studies", "0"),
        ("--min-studies", "-3"),
    ])
    def test_numeric_option_out_of_range_is_usage_error(self, cand_json, tmp_path,
                                                        option, value, capsys):
        rows = [f"A,{y},0.2" for y in (0.1, 0.3, 0.2)]
        corpus = write(tmp_path / "c.csv", "comparison_id,effect,se\n" + "\n".join(rows) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["rank", corpus, "--candidates", cand_json, option, value])
        assert exc.value.code == 2
        assert f"argument {option}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["configs", "model-types", "parameter-priors", "inclusion"])
    def test_gamma_effect_prior_rejected_before_any_comparison(self, corpus_csv, tmp_path, mode,
                                                              monkeypatch, caplog):
        from bmameta import averaging
        path = tmp_path / "cand.json"
        path.write_text(json.dumps({
            "delta_priors": ["normal(0.0,0.56)", "invgamma(1.26,0.24)"],
            "tau_priors": ["halfnormal(0.57)"],
        }))
        evaluated = []
        monkeypatch.setattr(averaging, "chunk_log_marginals", lambda *a, **k: evaluated.append(a))
        assert main(["rank", corpus_csv, "--candidates", str(path), "--mode", mode]) == 2
        assert evaluated == []
        assert "got invgamma(1.26,0.24)" in caplog.text

    @pytest.mark.parametrize("mode", ["configs", "parameter-priors"])
    def test_threads_match_serial_across_other_chunk_boundaries(self, corpus_csv, cand_json,
                                                                tmp_path, mode):
        # one comparison more than a chunk holds: serially a full chunk and
        # a chunk of one, with two threads two chunks of about half
        from bmameta import build_standard_ensemble, general_candidate_set, marginal
        cand = general_candidate_set()
        ensemble = build_standard_ensemble(cand.delta_priors, cand.tau_priors,
                                           include_types=("random_H1",))
        size = marginal.chunk_size([m.model for m in ensemble.members])
        n = size + 1
        assert size >= 2 and -(-n // 2) != size
        with open(corpus_csv) as fh:
            lines = fh.read().splitlines()
        keep = {f"C{c:02d}" for c in range(n)}
        csv = write(tmp_path / "few.csv", "\n".join(
            [lines[0]] + [ln for ln in lines[1:] if ln.split(",")[0] in keep]) + "\n")
        a, b = tmp_path / "serial.json", tmp_path / "threads.json"
        base = ["rank", csv, "--candidates", cand_json, "--mode", mode]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--threads", "2", "--out", str(b)]) == 0
        assert json.loads(a.read_text())["n_evaluated"] == n
        assert a.read_bytes() == b.read_bytes()

    def test_threads_flag_matches_serial(self, corpus_csv, cand_json, tmp_path):
        a, b = tmp_path / "t1.json", tmp_path / "t2.json"
        base = ["rank", corpus_csv, "--candidates", cand_json, "--mode", "model-types"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--threads", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def _one_error(caplog) -> str:
    """The message of the single ERROR record a failed command logged."""
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0], errors
    return errors[0]


NOT_UTF8 = b"effect,se\n0.5,0.2\n0.7\xff,0.3\n"
NOT_UTF8_CORPUS = b"comparison_id,effect,se\nc1,0.5,0.2\nc1,0.7\xff,0.3\n"


class TestFileErrors:
    """Unreadable, unwritable and malformed files end in exit 2 and one
    ERROR line, never in a traceback."""

    @pytest.fixture
    def cand_json(self, tmp_path):
        from bmameta import general_candidate_set
        path = tmp_path / "cand.json"
        path.write_text(json.dumps(general_candidate_set().to_dict()))
        return str(path)

    @pytest.mark.parametrize("text, message", [
        ("delta_priors: [t(0.0,0.43,5.0)]", "not a JSON candidate prior set"),
        ('["t(0.0,0.43,5.0)"]', "must be an object, got list"),
        ('{"tau_priors": ["halfnormal(0.57)"]}', "needs 'delta_priors'"),
        ('{"delta_priors": ["normal(0.0,0.56)"], "tau_priors": ["halfnormal(0.57)"], '
         '"provenance": {"input_comparisons": 3, "colour": "red"}}', "'provenance' must be an object with keys"),
    ], ids=["not-json", "json-list", "no-delta-priors", "unknown-provenance-key"])
    def test_malformed_candidates(self, corpus_csv, tmp_path, text, message, caplog):
        path = write(tmp_path / "bad.json", text)
        assert main(["rank", corpus_csv, "--candidates", path]) == 2
        assert message in _one_error(caplog)

    @pytest.mark.parametrize("option", ["--out", "--forest"])
    def test_analyze_output_is_a_directory(self, five_study_csv, tmp_path, option, caplog):
        assert main(["analyze", five_study_csv, option, str(tmp_path)]) == 2
        assert "Is a directory" in _one_error(caplog)

    def test_forest_directory_writes_no_report(self, five_study_csv, tmp_path, caplog):
        out = tmp_path / "r.json"
        assert main(["analyze", five_study_csv, "--out", str(out), "--forest", str(tmp_path)]) == 2
        assert "Is a directory" in _one_error(caplog)
        assert not out.exists()

    def test_report_directory_writes_no_forest(self, five_study_csv, tmp_path, caplog):
        svg = tmp_path / "f.svg"
        assert main(["analyze", five_study_csv, "--forest", str(svg), "--out", str(tmp_path)]) == 2
        assert "Is a directory" in _one_error(caplog)
        assert not svg.exists()

    @pytest.mark.parametrize("kind", ["file", "symlink"])
    def test_existing_forest_is_kept_when_report_cannot_be_opened(self, five_study_csv, tmp_path, kind,
                                                                  caplog):
        target = write(tmp_path / "old.svg", "old plot")
        svg = tmp_path / "link.svg" if kind == "symlink" else tmp_path / "old.svg"
        if kind == "symlink":
            svg.symlink_to(target)
        assert main(["analyze", five_study_csv, "--forest", str(svg), "--out", str(tmp_path)]) == 2
        assert "Is a directory" in _one_error(caplog)
        assert svg.is_symlink() == (kind == "symlink")
        assert svg.read_text() == "old plot"

    def test_existing_outputs_are_replaced(self, five_study_csv, tmp_path):
        fresh = [tmp_path / "new.json", tmp_path / "new.svg"]
        old = [write(tmp_path / "old.json", "x" * 100_000), write(tmp_path / "old.svg", "x" * 100_000)]
        for out, svg in (fresh, old):
            assert main(["analyze", five_study_csv, "--out", str(out), "--forest", str(svg)]) == 0
        for path, ref in zip(old, fresh):
            assert open(path).read() == ref.read_text()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_removes_the_files_it_created(self, five_study_csv, tmp_path, caplog):
        svg = tmp_path / "f.svg"
        assert main(["analyze", five_study_csv, "--forest", str(svg), "--out", "/dev/full"]) == 2
        assert "No space left on device" in _one_error(caplog)
        assert not svg.exists()
        assert os.path.exists("/dev/full")

    def test_rank_output_is_a_directory(self, corpus_csv, cand_json, tmp_path, caplog):
        assert main(["rank", corpus_csv, "--candidates", cand_json, "--out", str(tmp_path)]) == 2
        assert "Is a directory" in _one_error(caplog)

    def test_candidates_is_a_directory(self, corpus_csv, tmp_path, caplog):
        assert main(["rank", corpus_csv, "--candidates", str(tmp_path)]) == 2
        assert "Is a directory" in _one_error(caplog)

    @pytest.mark.parametrize("command", ["analyze", "fit-priors", "rank"])
    def test_csv_not_utf8(self, tmp_path, command, cand_json, caplog):
        path = tmp_path / "bad.csv"
        path.write_bytes(NOT_UTF8 if command == "analyze" else NOT_UTF8_CORPUS)
        extra = ["--candidates", cand_json] if command == "rank" else []
        assert main([command, str(path), *extra]) == 2
        assert "is not UTF-8 text" in _one_error(caplog)

    def test_malformed_csv(self, tmp_path, caplog):
        path = write(tmp_path / "huge.csv", "effect,se\n0.5,0.2\n" + "9" * 200_000 + ",0.3\n")
        assert main(["analyze", path]) == 2
        assert "is not valid CSV: field larger than field limit" in _one_error(caplog)

    def test_candidates_not_utf8(self, corpus_csv, tmp_path, caplog):
        path = tmp_path / "cand.json"
        path.write_bytes(b'{"delta_priors": ["\xff"]}')
        assert main(["rank", corpus_csv, "--candidates", str(path)]) == 2
        assert "not a JSON candidate prior set" in _one_error(caplog)

    @pytest.mark.parametrize("case", ["out-is-a-directory", "csv-not-utf8"])
    def test_console_entry_point(self, five_study_csv, tmp_path, case):
        if case == "out-is-a-directory":
            argv = ["analyze", five_study_csv, "--out", str(tmp_path)]
        else:
            path = tmp_path / "bad.csv"
            path.write_bytes(NOT_UTF8)
            argv = ["analyze", str(path)]
        src = os.path.dirname(os.path.dirname(os.path.abspath(bmameta.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "bmameta.cli", *argv], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert sum(line.startswith("ERROR:") for line in done.stderr.splitlines()) == 1, done.stderr


class TestCatalogCommand:
    def test_show(self, capsys):
        assert main(["catalog", "show", "Oral Health"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matched"] is True
        assert payload["delta"]["scale"] == 0.51

    def test_show_unknown_falls_back(self, capsys):
        assert main(["catalog", "show", "Nothing Here"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matched"] is False
        assert payload["topic"] == "Pooled estimate"

    def test_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["entries"]) == 46
        assert payload["pooled"]["topic"] == "Pooled estimate"


class TestReportSerialization:
    def test_seventeen_digit_floats(self, tmp_path):
        from bmameta.reports import dumps
        text = dumps({"x": 0.1, "n": 3, "flag": True, "none": None, "s": "hi"})
        assert '"x": 0.10000000000000001' in text
        assert '"n": 3' in text
        assert '"flag": true' in text

    def test_nonfinite_floats_become_null(self):
        from bmameta.reports import dumps
        assert dumps(float("inf")) == "null"
        assert dumps(float("nan")) == "null"
