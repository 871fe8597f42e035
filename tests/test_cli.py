"""Command-line plumbing: exit codes, outputs, sidecar configs."""

import csv
import json
import os
import pickle
import signal
import subprocess
import sys

import numpy as np
import pytest

import voxtrait
from voxtrait.audio_io import AudioClip, load_wav, resample, write_wav
from voxtrait.cli import main
from voxtrait.config import RunConfig
from voxtrait.errors import InputError
from voxtrait.features import (
    FEATURE_NAMES,
    FeatureTable,
    FeatureVector,
    read_table_csv,
    write_table_csv,
)
from voxtrait.regression import RatingTable, load_model, write_ratings_csv
from voxtrait.stats import read_matrix_csv


def _read_sidecar(out: str) -> dict:
    with open(out + ".run.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def features_csv(extracted, tmp_path_factory):
    """The 18-row corpus feature table as a CSV on disk."""
    path = str(tmp_path_factory.mktemp("cli") / "features.csv")
    write_table_csv(path, extracted[0])
    return path


@pytest.fixture()
def toy_csvs(tmp_path):
    """Hand-built strong-signal table: spkrate drives the cooperative rating."""
    rng = np.random.default_rng(3)
    live = ["spkrate", "mean_pause", "f0_mean", "f1", "cep1", "cep2"]
    table = FeatureTable()
    ratings = RatingTable()
    for i in range(12):
        sid = f"sp{i:02d}"
        vals = {name: float(rng.standard_normal() + k) for k, name in enumerate(live)}
        table.add(sid, "S1", FeatureVector(vals))
        table.add(sid, "S2", FeatureVector({k: v + 0.1 for k, v in vals.items()}))
        rating = int(np.clip(round(4 + 1.5 * vals["spkrate"]), 1, 7))
        ratings.add(sid, "cooperative", "P", rating)
    f_path = str(tmp_path / "features.csv")
    r_path = str(tmp_path / "ratings.csv")
    write_table_csv(f_path, table)
    write_ratings_csv(r_path, ratings)
    return f_path, r_path


def test_extract_full_manifest(corpus, tmp_path, capsys):
    out = str(tmp_path / "features.csv")
    code = main(["extract", "--manifest", corpus.manifest, "--out", out])
    assert code == 0
    table = read_table_csv(out)
    assert len(table.rows) == 18
    sidecar = _read_sidecar(out)
    assert sidecar["command"] == "extract"
    assert sidecar["config"]["sample_rate"] == 11025


def test_extract_partial_failure(corpus, tmp_path, capsys):
    # manifest paths resolve relative to the manifest file, so absolutize
    manifest = tmp_path / "manifest.csv"
    with open(corpus.manifest, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[0] = os.path.join(corpus.root, row[0])
    rows.append(["missing.wav", "spXX", "S1"])
    with open(manifest, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    out = str(tmp_path / "features.csv")
    code = main(["extract", "--manifest", str(manifest), "--out", out])
    assert code == 4
    assert len(read_table_csv(out).rows) == 18
    assert "warning:" in capsys.readouterr().err


def test_extract_total_failure(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,speaker_id,session\na.wav,sp01,S1\nb.wav,sp02,S1\n")
    code = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "f.csv")])
    assert code == 2


def test_extract_rejects_repeated_manifest_key(corpus, tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    wav = os.path.join(corpus.wav_dir, sorted(os.listdir(corpus.wav_dir))[0])
    manifest.write_text(
        f"path,speaker_id,session\n{wav},sp01,S1\n{wav},sp01,S2\n\n{wav},sp01,S1\n"
    )
    out = tmp_path / "f.csv"
    code = main(["extract", "--manifest", str(manifest), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "manifest.csv:5: duplicate row for ('sp01', 'S1'), first on line 2" in err
    assert not out.exists()  # rejected before any recording is processed


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_extract_unexpected_error_fails_one_row(corpus, tmp_path, capsys, monkeypatch, jobs):
    # an error outside the typed hierarchy costs its row, not the table;
    # pool workers are forked, so they see the patch too
    import voxtrait.cli

    segment_clip = voxtrait.cli.segment_clip

    def segment_or_fail(clip, cfg):
        if clip.source_id == "spXX/S1":
            raise ZeroDivisionError("boom")
        return segment_clip(clip, cfg)

    monkeypatch.setattr(voxtrait.cli, "segment_clip", segment_or_fail)
    wavs = [os.path.join(corpus.wav_dir, name) for name in sorted(os.listdir(corpus.wav_dir))[:2]]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        f"path,speaker_id,session\n{wavs[0]},sp01,S1\n{wavs[1]},spXX,S1\n{wavs[1]},sp02,S1\n"
    )
    out = str(tmp_path / "f.csv")
    code = main(["extract", "--manifest", str(manifest), "--out", out, "--jobs", jobs])
    assert code == 4
    assert [row.speaker_id for row in read_table_csv(out).rows] == ["sp01", "sp02"]
    err = capsys.readouterr().err
    assert f"warning: {wavs[1]}: ZeroDivisionError: boom" in err
    assert "in segment_or_fail" in err  # the traceback, from a worker too


def test_run_config_reaches_pool_workers_whole(corpus, tmp_path, capsys):
    # extract hands each worker the frozen RunConfig itself, pickled
    cfg = RunConfig(alphas=(0.05, 0.001), pause_min_duration=0.9)
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg and back.alphas == (0.001, 0.05)
    wavs = [os.path.join(corpus.wav_dir, name) for name in sorted(os.listdir(corpus.wav_dir))[:2]]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"path,speaker_id,session\n{wavs[0]},sp01,S1\n{wavs[1]},sp02,S1\n")
    tables = {}
    for jobs, floor in (("1", "0.9"), ("2", "0.9"), ("2", "0.4")):
        out = tmp_path / f"f{jobs}_{floor}.csv"
        argv = ["extract", "--manifest", str(manifest), "--out", str(out), "--jobs", jobs]
        assert main([*argv, "--pause-min-duration", floor]) == 0
        tables[jobs, floor] = out.read_bytes()
    assert tables["2", "0.9"] == tables["1", "0.9"]
    assert tables["2", "0.9"] != tables["2", "0.4"]  # the workers read the 0.9 s floor


# A process that has started the block pool, then forks `extract --jobs 2`
# workers: the children inherit the pool object but not its threads.
_FORK_AFTER_POOL = """
import sys
import numpy as np
from voxtrait import _blocks
from voxtrait.audio_io import AudioClip
from voxtrait.cli import main
from voxtrait.segmentation import analyze_frames

_blocks._workers = 2  # a pool thread on any machine
analyze_frames(AudioClip(np.zeros(120 * 11025), 11025))
assert _blocks._pool is not None
sys.exit(main(sys.argv[1:]))
"""


def test_extract_jobs_after_the_block_pool_started(corpus, tmp_path):
    # Two 30 s 44.1 kHz recordings: decoding each is 20 blocks, enough for
    # two threads, so a child that kept the inherited pool would wait on it
    # forever. The timeout turns such a hang into a failure.
    names = sorted(os.listdir(corpus.wav_dir))
    rows = ["path,speaker_id,session"]
    for i in range(2):
        audio = np.concatenate(
            [load_wav(os.path.join(corpus.wav_dir, n)).samples for n in names[i::2]]
        )
        clip = resample(AudioClip(np.tile(audio, 2)[: 30 * 11025], 11025), 44100)
        path = tmp_path / f"long{i}.wav"
        write_wav(str(path), clip.samples, 44100)
        rows.append(f"{path},sp{i:02d},S1")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    argv = ["extract", "--manifest", str(manifest), "--out"]
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(voxtrait.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    forked = subprocess.Popen(
        [sys.executable, "-c", _FORK_AFTER_POOL, *argv, str(tmp_path / "f2.csv"), "--jobs", "2"],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # one process group with its pool workers
    )
    try:
        _, err = forked.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(forked.pid, signal.SIGKILL)
        forked.communicate()
        pytest.fail("extract --jobs 2 hung after the block pool had started")
    assert forked.returncode == 0, err
    assert main([*argv, str(tmp_path / "f1.csv"), "--jobs", "1"]) == 0
    assert (tmp_path / "f2.csv").read_bytes() == (tmp_path / "f1.csv").read_bytes()


# each config flag with a value away from its default
CONFIG_FLAG_VALUES = {
    "sample_rate": 8000,
    "pause_min_duration": 0.9,
    "voicing_threshold": 0.5,
    "entry_p": 0.02,
    "removal_p": 0.2,
    "seed": 9,
    "jobs": 2,
}


def test_extract_config_override_lands_in_sidecar(corpus, tmp_path, capsys):
    # one recording keeps the seven runs cheap; each flag alone must land
    # on its own field and leave every other field at its default
    with open(corpus.manifest, newline="", encoding="utf-8") as fh:
        first = next(csv.DictReader(fh))
    manifest = tmp_path / "one.csv"
    manifest.write_text(
        f"path,speaker_id,session\n"
        f"{os.path.join(corpus.root, first['path'])},{first['speaker_id']},{first['session']}\n"
    )
    default = RunConfig().to_dict()
    for name, value in CONFIG_FLAG_VALUES.items():
        out = str(tmp_path / f"{name}.csv")
        flag = "--" + name.replace("_", "-")
        code = main(["extract", "--manifest", str(manifest), "--out", out, flag, str(value)])
        assert code == 0, name
        sidecar = _read_sidecar(out)
        assert sidecar["config"] == {**default, name: value}, name


def test_extract_rejects_frames_too_short_for_the_pitch_range(corpus, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frame_length": 0.002, "frame_hop": 0.001}))
    out = str(tmp_path / "f.csv")
    code = main(["extract", "--config", str(cfg), "--manifest", corpus.manifest, "--out", out])
    assert code == 2
    assert not os.path.exists(out)  # rejected before any recording ran
    err = capsys.readouterr().err
    assert "frame_length" in err
    assert "warning" not in err


def test_compare_topics_merges_both_tests(features_csv, tmp_path, capsys):
    out = str(tmp_path / "matrix.csv")
    code = main(["compare-topics", "--features", features_csv, "--out", out, "--test", "both"])
    assert code == 0
    matrix = read_matrix_csv(out)
    assert len(matrix.cells) == 30 * 3 * 2
    assert os.path.exists(out + ".run.json")


def test_transition_similarity_published(capsys):
    code = main(["transition-similarity", "--published", "--alpha", "0.01", "--test", "W"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("cos(")]
    assert len(lines) == 3
    for line in lines:
        float(line.split("=")[1])  # parsable value


@pytest.mark.parametrize(
    "doc", [{"alphas": 0.05}, {"sample_rate": "x"}, {"seed": True}, {"alphas": [0.01, "x"]}]
)
def test_config_value_of_the_wrong_type_is_an_input_error(tmp_path, capsys, doc):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert main(["transition-similarity", "--published", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and next(iter(doc)) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, value",
    [
        ("prosody_window", float("nan")),
        ("spectral_window", float("nan")),
        ("speech_floor_drop_db", float("nan")),
        ("min_nucleus_separation", float("inf")),
        ("pause_min_duration", float("-inf")),
        ("min_vowel_duration", -1.0),
        ("nucleus_drop_db", -5.0),
        ("speech_floor_drop_db", -1.0),
        ("min_nucleus_separation", -0.06),
    ],
)
def test_config_value_not_finite_or_out_of_range_is_an_input_error(
    tmp_path, capsys, name, value
):
    with pytest.raises(InputError, match=name):
        RunConfig(**{name: value})
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({name: value}))  # NaN and Infinity, as json reads them
    assert main(["transition-similarity", "--published", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert "Traceback" not in err


def test_transition_similarity_needs_a_matrix(capsys):
    assert main(["transition-similarity"]) == 2
    assert "error:" in capsys.readouterr().err


def test_train_stable_then_evaluate(toy_csvs, tmp_path, capsys):
    f_path, r_path = toy_csvs
    out = str(tmp_path / "model.json")
    code = main(
        ["train", "--features", f_path, "--ratings", r_path,
         "--dv", "cooperative", "--session", "S1", "--out", out]
    )
    assert code == 0
    assert "stable=True" in capsys.readouterr().out
    model = load_model(out)
    assert "spkrate" in model.predictors

    code = main(
        ["evaluate", "--model", out, "--features", f_path, "--ratings", r_path,
         "--session", "S2"]
    )
    assert code == 0
    assert "r = " in capsys.readouterr().out


def _corrupt_model(doc: dict, how: str) -> None:
    name = doc["predictors"][0]["name"]
    if how == "no standardization":
        del doc["standardization"][name]
    elif how == "beta":
        doc["predictors"][0]["beta"] = float("nan")
    elif how == "unknown predictor":
        doc["predictors"][0]["name"] = "speaking_rate"
        doc["standardization"]["speaking_rate"] = doc["standardization"].pop(name)
    else:
        field, value = how.split("=")
        doc["standardization"][name][field] = float(value)


@pytest.mark.parametrize(
    "how",
    ["no standardization", "unknown predictor", "beta", "mean=nan", "std=inf", "std=0", "std=-1.5"],
)
def test_evaluate_rejects_a_model_it_cannot_score(toy_csvs, tmp_path, capsys, how):
    f_path, r_path = toy_csvs
    out = str(tmp_path / "model.json")
    train = ["train", "--features", f_path, "--ratings", r_path]
    assert main([*train, "--dv", "cooperative", "--session", "S1", "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    _corrupt_model(doc, how)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)  # NaN and Infinity, as json reads them
    capsys.readouterr()
    code = main(
        ["evaluate", "--model", out, "--features", f_path, "--ratings", r_path,
         "--session", "S2"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "model.json" in err
    assert "Traceback" not in err


def test_train_unstable_exits_five(features_csv, corpus, tmp_path, capsys):
    # 6 speakers cannot clear the Bonferroni entry gate: empty, unstable
    out = str(tmp_path / "model.json")
    code = main(
        ["train", "--features", features_csv, "--ratings", corpus.ratings,
         "--dv", "cooperative", "--session", "S1", "--out", out]
    )
    assert code == 5
    assert "stable=False" in capsys.readouterr().out
    assert os.path.exists(out)


def test_train_rejects_sa(toy_csvs, tmp_path, capsys):
    f_path, r_path = toy_csvs
    code = main(
        ["train", "--features", f_path, "--ratings", r_path, "--rater-type", "SA",
         "--dv", "cooperative", "--session", "S1", "--out", str(tmp_path / "m.json")]
    )
    assert code == 2


def test_train_rejects_unknown_dv_in_ratings(toy_csvs, tmp_path, capsys):
    f_path, _ = toy_csvs
    r_path = tmp_path / "ratings.csv"
    r_path.write_text("speaker_id,dv,rater_type,rating\nsp01,cooperativ,P,4\n")
    code = main(
        ["train", "--features", f_path, "--ratings", str(r_path),
         "--dv", "cooperative", "--session", "S1", "--out", str(tmp_path / "m.json")]
    )
    assert code == 2
    assert "ratings.csv:2: unknown dv 'cooperativ'" in capsys.readouterr().err


def test_score_against_registry(features_csv, capsys):
    code = main(["score", "--features", features_csv, "--dv", "cooperative",
                 "--session", "S1"])
    assert code == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert out_lines[0].startswith("#")
    assert out_lines[1] == "speaker,session,dv,model_session,score,top_terms,text_uncertain"
    data = out_lines[2:]
    assert len(data) == 18  # every table row scored against the one model
    for line in data:
        cells = line.split(",")
        assert cells[2] == "cooperative" and cells[3] == "S1"
        float(cells[4])


def test_score_with_explicit_stats(tmp_path, capsys):
    # one row, identity standardization: the score is just sum(beta * x)
    table = FeatureTable()
    table.add(
        "solo",
        "S1",
        FeatureVector({"pause_speech_ratio": 0.5, "mean_pause": -1.0, "cep1": 2.0}),
    )
    f_path = str(tmp_path / "f.csv")
    write_table_csv(f_path, table)
    s_path = str(tmp_path / "stats.csv")
    with open(s_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["feature", "mean", "std"])
        for name in ("pause_speech_ratio", "mean_pause", "cep1"):
            w.writerow([name, "0.0", "1.0"])
    code = main(["score", "--features", f_path, "--stats", s_path,
                 "--dv", "cooperative", "--session", "S1"])
    assert code == 0
    line = capsys.readouterr().out.splitlines()[-1]
    got = float(line.split(",")[4])
    expect = -0.67 * 0.5 + -0.35 * -1.0 + 0.29 * 2.0
    assert got == pytest.approx(expect, abs=1e-4)


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_score_rejects_non_finite_stats(tmp_path, capsys, cell):
    table = FeatureTable()
    table.add("solo", "S1", FeatureVector({"cep1": 2.0}))
    f_path = str(tmp_path / "f.csv")
    write_table_csv(f_path, table)
    s_path = tmp_path / "stats.csv"
    s_path.write_text(f"feature,mean,std\ncep1,0.0,1.0\nmean_pause,{cell},1.0\n")
    code = main(["score", "--features", f_path, "--stats", str(s_path)])
    assert code == 2
    assert "stats.csv:3: numeric cell" in capsys.readouterr().err


def test_synth_corpus_command(tmp_path, capsys):
    out = str(tmp_path / "corp")
    code = main(["synth-corpus", "--out", out, "--speakers", "2", "--seed", "5"])
    assert code == 0
    assert os.path.exists(os.path.join(out, "manifest.csv"))
    assert os.path.exists(os.path.join(out, "ratings.csv"))
    assert os.path.exists(os.path.join(out, "corpus.run.json"))
    assert "manifest:" in capsys.readouterr().out


def test_windows_dump(corpus, capsys):
    wav = os.path.join(corpus.wav_dir, sorted(os.listdir(corpus.wav_dir))[0])
    code = main(["windows", "--wav", wav])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split(",")[:3] == ["start_s", "end_s", "f0_mean"]
    assert len(lines) > 1
    assert all(len(line.split(",")) == 10 for line in lines)


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_missing_input_file(tmp_path, capsys):
    code = main(["compare-topics", "--features", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "m.csv")])
    assert code == 2
