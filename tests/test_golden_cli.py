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

import hashlib
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
