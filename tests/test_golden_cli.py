"""Golden-output lock: the Session-backed CLI is byte-identical to the
pre-redesign front doors.

The files under ``tests/golden/`` were captured from the CLI *before*
the ``repro.api`` redesign (PR 4).  Every historical invocation — the
one-shot binding comparison, ``simulate --sweep``/``--scenario`` in all
formats, both engines, the evaluation sweep, fig6, and crosscheck —
must keep producing exactly those bytes through the new request/Session
path.  ``repro report`` is locked by hash (the full text is ~34 KB).

If an intentional output change lands, regenerate the goldens in the
same commit and say why in its message.
"""

import argparse
import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    (["simulate", "--chunks", "4"], "simulate-oneshot.txt"),
    (["simulate", "--chunks", "8", "--engine", "cycle"],
     "simulate-oneshot-cycle.txt"),
    (["simulate", "--sweep", "--chunks-list", "16,32", "--arrays", "64",
      "--format", "csv"], "simulate-sweep.csv"),
    (["simulate", "--sweep", "--chunks-list", "16", "--arrays", "64",
      "--pe1d-list", "32,64", "--embeddings", "32", "--format", "json"],
     "simulate-sweep.json"),
    (["simulate", "--sweep", "--chunks-list", "16,32", "--arrays", "64"],
     "simulate-sweep.txt"),
    # The binding-sweep engine gate: the chunk fold against rows the
    # event core produced on the built graphs (1 chunk has no lag edge,
    # 257 is odd, so no whole number of replayed windows covers it).
    (["simulate", "--sweep", "--chunks-list", "1,16,257", "--arrays",
      "64,128", "--pe1d-list", "8,64", "--format", "csv", "--no-cache"],
     "simulate-sweep-engines.csv"),
    (["simulate", "--scenario", "--instances", "3", "--chunks", "8",
      "--array-dim", "64", "--format", "csv"], "simulate-scenario.csv"),
    (["simulate", "--scenario", "--instances", "2", "--chunks", "4",
      "--array-dim", "64", "--format", "json"], "simulate-scenario.json"),
    (["simulate", "--scenario", "--model", "BERT", "--batch", "2",
      "--heads", "2", "--chunks", "4", "--array-dim", "64",
      "--decode-instances", "2", "--decode-chunks", "8"],
     "simulate-scenario-model.txt"),
    (["simulate", "--scenario", "--instances", "2", "--chunks", "6",
      "--array-dim", "64", "--binding", "tile-serial", "--engine", "cycle"],
     "simulate-scenario-cycle.txt"),
    # Bandwidth-limited scenario (PR 5): the dram_bw/busy_dram/util_dram
    # columns appear, and the schedule rides the shared memory link.
    (["simulate", "--scenario", "--instances", "2", "--chunks", "4",
      "--array-dim", "64", "--decode-instances", "2", "--decode-chunks",
      "16", "--dram-bw", "32", "--format", "csv"],
     "simulate-scenario-dram.csv"),
    (["simulate", "--scenario", "--mixed-models", "BERT,XLM", "--chunks",
      "4", "--array-dim", "64", "--binding", "interleaved"],
     "simulate-scenario-mixed.txt"),
    (["sweep", "--kind", "attention", "--models", "BERT,T5",
      "--seq-lens", "1024,65536"], "sweep-attention.txt"),
    (["sweep", "--kind", "inference", "--models", "BERT",
      "--seq-lens", "1024"], "sweep-inference.txt"),
    (["crosscheck"], "crosscheck.txt"),
    # The full crosscheck (bandwidth, capacity and cluster points), the
    # text the report-crosscheck benchmark workload produces.
    (["crosscheck", "--bandwidth", "--capacity", "--cluster"],
     "crosscheck-full.txt"),
    (["fig6"], "fig6.txt"),
    # Open-loop serving (this PR): the seeded rate sweep, the default
    # table, and a trace-driven point are each locked byte-for-byte —
    # `repro serve --rate R --seed S` must replay identically forever.
    (["serve", "--rate", "0.2,0.4", "--duration", "16384", "--seed", "11",
      "--array-dim", "128", "--deadline", "8000", "--decode-tokens", "2",
      "--format", "csv"], "serve-rate-sweep.csv"),
    (["serve", "--rate", "0.5", "--duration", "8192", "--array-dim", "64",
      "--max-inflight", "4", "--decode-tokens", "1"], "serve-oneshot.txt"),
    (["serve", "--trace", str(GOLDEN / "serve-trace.in"), "--deadline",
      "2000", "--array-dim", "64", "--format", "json"], "serve-trace.json"),
    # Buffer capacity + DRAM QoS (this PR): a spilling decode-first
    # scenario (widened buffer_bytes/qos/spill_bytes columns) and a
    # capacity-swept grid whose estimates take the capacity-bound
    # roofline term — locked byte-for-byte.
    (["simulate", "--scenario", "--instances", "2", "--chunks", "4",
      "--array-dim", "64", "--decode-instances", "2", "--decode-chunks",
      "16", "--dram-bw", "32", "--buffer-bytes", "24576", "--qos",
      "decode-first", "--format", "csv", "--no-cache"],
     "simulate-scenario-capacity.csv"),
    (["sweep", "--grid", "--models", "BERT", "--batches", "1",
      "--heads-list", "2,4", "--chunks", "8", "--array-dim", "64",
      "--decode-list", "2", "--dram-bw", "32", "--buffer-bytes", "24576",
      "--format", "csv", "--no-cache"], "sweep-grid-capacity.csv"),
    # Multi-chip cluster sweeps (this PR): one unlinked chip sweep (the
    # narrow historical columns, no link gating) and one sharded sweep
    # over a priced interconnect (the widened link columns) — both
    # locked byte-for-byte through the pooled runtime.
    (["cluster", "--instances", "4", "--chunks", "8", "--array-dim", "64",
      "--chips", "1,2", "--link-bws", "none"], "cluster-unlinked.txt"),
    (["cluster", "--instances", "4", "--chunks", "8", "--array-dim", "64",
      "--chips", "2,4", "--shardings", "head,tensor", "--link-bws", "64",
      "--link-latency", "4", "--format", "csv"], "cluster-linked.csv"),
    # The row emitter's gating and blanking, locked before it became one
    # emitter: a DRAM grid whose scenario columns widen (table and
    # JSON), a chip sweep mixing unlinked and linked rows (the `none`
    # rows blank the link group), and a serving row with `-` cells and
    # the buffer/QoS columns.
    (["sweep", "--grid", "--models", "BERT", "--batches", "1",
      "--heads-list", "2,4", "--chunks", "8", "--array-dim", "64",
      "--decode-list", "0,2", "--dram-bw", "32", "--no-cache"],
     "sweep-grid-dram.txt"),
    (["sweep", "--grid", "--models", "BERT", "--batches", "1",
      "--heads-list", "2,4", "--chunks", "8", "--array-dim", "64",
      "--decode-list", "0,2", "--dram-bw", "32", "--no-cache",
      "--format", "json"], "sweep-grid-dram.json"),
    (["cluster", "--instances", "4", "--chunks", "8", "--array-dim", "64",
      "--chips", "1,2", "--link-bws", "none,64", "--no-cache"],
     "cluster-mixed-link.txt"),
    (["cluster", "--instances", "4", "--chunks", "8", "--array-dim", "64",
      "--chips", "1,2", "--link-bws", "none,64", "--no-cache",
      "--format", "json"], "cluster-mixed-link.json"),
    (["serve", "--rate", "0.5", "--duration", "8192", "--array-dim", "64",
      "--decode-tokens", "2", "--dram-bw", "64", "--qos", "decode-first",
      "--no-cache"], "serve-qos.txt"),
    # Multi-chip serving: per-chip templates, link gathers, buffer
    # spills and the decode-first priority key in one table.
    (["serve", "--chips", "2", "--link-bw", "64", "--link-latency", "3",
      "--rate", "0.5", "--duration", "8192", "--array-dim", "64",
      "--decode-tokens", "2", "--dram-bw", "64", "--buffer-bytes", "8192",
      "--qos", "decode-first", "--no-cache"], "serve-chips-qos.txt"),
]


@pytest.mark.parametrize(
    "argv,golden", CASES, ids=[golden for _, golden in CASES]
)
def test_cli_output_is_byte_identical(capsys, argv, golden):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / golden).read_text()


def test_report_hash_is_byte_identical():
    from repro.api import ExperimentRequest, Session

    text = Session().run(ExperimentRequest(name="report")).payload
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == (GOLDEN / "report.sha256").read_text().strip()


# --------------------------------------------------------------------------
# The CLI contract beyond stdout: every option's shape, and how bad
# invocations are refused.  Both goldens were captured before the parsers
# were generated from the request field declarations; help text is left
# out on purpose (it may be reworded), everything argparse exposes about
# an option is in.
# --------------------------------------------------------------------------


def describe_parser(parser):
    """Every option of the parser and of each subcommand, in order:
    strings, dest, default, choices, action, metavar and type name."""
    surface = {}

    def walk(name, parser):
        options = []
        for action in parser._actions:
            choices = action.choices
            if isinstance(action, argparse._SubParsersAction):
                for sub_name, sub in action.choices.items():
                    walk(sub_name, sub)
                choices = list(choices)
            options.append({
                "strings": list(action.option_strings),
                "dest": action.dest,
                "default": action.default,
                "choices": None if choices is None else list(choices),
                "action": type(action).__name__,
                "metavar": action.metavar,
                "type": getattr(action.type, "__name__", None),
                "nargs": action.nargs,
                "required": action.required,
            })
        surface[name] = {
            "options": options,
            "exclusive": [
                [a.option_strings for a in group._group_actions]
                for group in parser._mutually_exclusive_groups
            ],
        }

    walk("repro", parser)
    return json.loads(json.dumps(surface))


#: Bad invocations, each locked to its exit status and full stderr
#: (``{golden}`` names ``tests/golden``; cases run in an empty directory
#: with ``COLUMNS=80`` so argparse's usage lines wrap the same way).
REJECTIONS = [
    # argparse-level range checks and the parser-wide cache rule.
    ["sweep", "--jobs", "0"],
    ["simulate", "--chunks", "0"],
    ["simulate", "--scenario", "--decode-instances", "-1"],
    ["serve", "--rate", "1", "--seed", "-1"],
    ["simulate", "--scenario", "--cache-dir", "c", "--no-cache"],
    # List parsing.
    ["sweep", "--seq-lens", "1k"],
    ["simulate", "--sweep", "--chunks-list", "16,x"],
    ["simulate", "--sweep", "--arrays", "0"],
    ["sweep", "--grid", "--decode-list", "-1"],
    ["serve", "--rate", "0.5,x"],
    ["cluster", "--link-bws", "x"],
    ["cluster", "--chips", "0"],
    # Mode routing.
    ["simulate", "--sweep", "--scenario"],
    ["simulate", "--model", "BERT", "--qos", "decode-first"],
    ["simulate", "--sweep", "--chunks", "4", "--array-dim", "64"],
    ["simulate", "--chunks-list", "16", "--jobs", "2", "--format", "csv"],
    ["simulate", "--sweep", "--engine", "cycle"],
    ["sweep", "--batches", "1,2", "--dram-bw", "8"],
    ["sweep", "--grid", "--kind", "attention", "--seq-lens", "1024"],
    ["serve"],
    ["serve", "--rate", "1", "--trace", "{golden}/serve-trace.in"],
    ["serve", "--trace", "no-such.trace"],
    # Request rules: per field, then across fields.
    ["sweep", "--models", "GPT"],
    ["sweep", "--seq-lens", "0"],
    ["sweep", "--seq-lens", "1000"],
    ["simulate", "--scenario", "--model", "GPT", "--instances", "4"],
    ["simulate", "--scenario", "--buffer-bytes", "-1"],
    ["simulate", "--scenario", "--batch", "2", "--heads", "2"],
    ["simulate", "--scenario", "--binding", "tile-serial", "--slots", "2"],
    ["simulate", "--scenario", "--decode-chunks", "8", "--dram-bw", "0"],
    ["simulate", "--scenario", "--mixed-models", "BERT,GPT", "--model", "T5"],
    ["sweep", "--grid", "--models", "GPT", "--dram-bw", "0"],
    ["sweep", "--grid", "--binding", "tile-serial", "--slots", "2",
     "--decode-chunks", "4"],
    ["serve", "--rate", "0", "--dram-bw", "0"],
    ["serve", "--rate", "1", "--link-bw", "0"],
    ["serve", "--trace", "{golden}/serve-trace.in", "--seed", "1",
     "--chunks", "4"],
    ["cluster", "--model", "GPT", "--instances", "4"],
    ["cluster", "--shardings", "diagonal", "--link-bws", "-1"],
    ["cluster", "--model", "BERT", "--batch", "1", "--heads", "2",
     "--chunks", "4", "--array-dim", "64", "--chips", "3",
     "--shardings", "tensor"],
    ["crosscheck", "--tolerance", "-1"],
    # The cycle oracle is serial and uncached: runtime flags are refused
    # on every cycle path, never ignored.
    ["simulate", "--scenario", "--instances", "2", "--chunks", "4",
     "--array-dim", "64", "--engine", "cycle", "--jobs", "2",
     "--retries", "1"],
    ["simulate", "--chunks", "4", "--array-dim", "64", "--engine", "cycle",
     "--retries", "2", "--task-timeout", "5", "--on-error", "skip"],
    ["cluster", "--instances", "2", "--chunks", "4", "--array-dim", "64",
     "--chips", "1,2", "--engine", "cycle", "--jobs", "2", "--registry",
     "cycle-runs", "--no-cache"],
    # A link latency needs a link to delay.
    ["serve", "--rate", "0.5", "--duration", "4096", "--array-dim", "64",
     "--decode-tokens", "1", "--chips", "2", "--link-latency", "50",
     "--no-cache"],
]


def run_cli(argv):
    """(exit status, stderr) of one in-process CLI run; an exception
    that escapes ``main`` reads as ``raised <type>`` plus its message."""
    err = io.StringIO()
    argv = [arg.format(golden=GOLDEN) for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        except Exception as error:  # recorded, then compared with the golden
            code = f"raised {type(error).__name__}"
            err.write(str(error))
    return code, err.getvalue()


def test_cli_surface_matches_golden():
    from repro.cli import build_parser

    golden = json.loads((GOLDEN / "cli-surface.json").read_text())
    assert describe_parser(build_parser()) == golden


REJECTION_GOLDEN = json.loads((GOLDEN / "cli-rejections.json").read_text())


def test_rejection_golden_covers_every_case():
    assert [row["argv"] for row in REJECTION_GOLDEN] == REJECTIONS


@pytest.mark.parametrize(
    "row", REJECTION_GOLDEN, ids=[" ".join(row["argv"]) for row in REJECTION_GOLDEN]
)
def test_rejection_is_byte_identical(row, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(row["argv"]) == (row["exit"], row["stderr"])
    # A refused run leaves nothing behind (no registry directory).
    assert list(tmp_path.iterdir()) == []
