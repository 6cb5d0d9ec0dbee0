"""Tests for the CLI, simulation tracing, and Gantt rendering."""

import pytest

from repro.analysis import render_gantt, trace_summary
from repro.core.cli import build_parser, main
from repro.hw import hydra_cluster
from repro.sim import ProgramBuilder, Simulator
from repro.sim.result import TraceEvent


class _Capture:
    def __init__(self):
        self.lines = []

    def __call__(self, text=""):
        self.lines.append(str(text))

    @property
    def text(self):
        return "\n".join(self.lines)


class TestTraceRecording:
    def test_trace_disabled_by_default(self):
        b = ProgramBuilder(1)
        b.compute(0, 1.0, tag="x")
        res = Simulator(hydra_cluster(1, 1)).run(b.build())
        assert res.trace == []

    def test_compute_and_comm_events_recorded(self):
        b = ProgramBuilder(2)
        i = b.compute(0, 1.0, tag="work")
        b.transfer(0, 1, 1e6, after=i, tag="xfer")
        b.compute(1, 0.5, tag="work", needs_recv=True)
        res = Simulator(hydra_cluster(1, 2), trace=True).run(b.build())
        kinds = {ev.kind for ev in res.trace}
        assert kinds == {"compute", "send", "recv"}
        computes = [ev for ev in res.trace if ev.kind == "compute"]
        assert len(computes) == 2
        assert all(ev.end > ev.start for ev in res.trace)

    def test_zero_duration_tasks_not_traced(self):
        b = ProgramBuilder(1)
        b.compute(0, 0.0)
        res = Simulator(hydra_cluster(1, 1), trace=True).run(b.build())
        assert res.trace == []

    def test_trace_summary(self):
        trace = [
            TraceEvent(0, "compute", "a", 0.0, 1.0),
            TraceEvent(0, "compute", "a", 1.0, 3.0),
            TraceEvent(1, "send", "b", 0.0, 0.5),
        ]
        rows = trace_summary(trace)
        assert rows == [
            {"kind": "compute", "tag": "a",
             "busy_seconds": pytest.approx(3.0)},
            {"kind": "send", "tag": "b",
             "busy_seconds": pytest.approx(0.5)},
        ]

    def test_trace_summary_is_json_serializable(self):
        import json

        rows = trace_summary([TraceEvent(0, "compute", "a", 0.0, 1.0)])
        assert json.loads(json.dumps(rows)) == rows

    def test_trace_events_carry_step_and_channel(self):
        b = ProgramBuilder(2)
        i = b.compute(0, 1.0, tag="work")
        b.transfer(0, 1, 1e6, after=i, tag="xfer")
        b.compute(1, 0.5, tag="work", needs_recv=True)
        res = Simulator(hydra_cluster(1, 2), trace=True).run(
            b.build(), step="conv1")
        assert all(ev.step == "conv1" for ev in res.trace)
        send = next(ev for ev in res.trace if ev.kind == "send")
        assert send.channel == "0->1"
        compute = next(ev for ev in res.trace if ev.kind == "compute")
        assert compute.channel is None


class TestGanttRendering:
    def test_empty_trace(self):
        assert "empty" in render_gantt([])

    def test_rows_per_card(self):
        trace = [
            TraceEvent(0, "compute", "a", 0.0, 1.0),
            TraceEvent(1, "send", "b", 0.0, 0.5),
        ]
        out = render_gantt(trace, width=20)
        assert "card   0" in out
        assert "card   1" in out
        assert "#" in out and ">" in out

    def test_node_cap(self):
        trace = [TraceEvent(i, "compute", "a", 0.0, 1.0)
                 for i in range(20)]
        out = render_gantt(trace, max_nodes=4)
        assert "16 more cards" in out

    def test_compute_wins_overlap_priority(self):
        trace = [
            TraceEvent(0, "recv", "x", 0.0, 1.0),
            TraceEvent(0, "compute", "x", 0.0, 1.0),
        ]
        out = render_gantt(trace, width=10)
        row = [l for l in out.splitlines() if l.startswith("card")][0]
        assert "#" in row and "." not in row

    def test_zero_makespan(self):
        trace = [TraceEvent(0, "compute", "a", 0.0, 0.0)]
        assert "zero-length" in render_gantt(trace)

    def test_event_at_makespan_boundary_still_paints(self):
        # A zero/sub-pixel event ending exactly at the makespan must
        # occupy the final column instead of being rounded off the grid.
        width = 10
        trace = [
            TraceEvent(0, "compute", "a", 0.0, 10.0),
            TraceEvent(1, "send", "b", 10.0, 10.0),
            TraceEvent(2, "recv", "c", 9.99, 10.0),
        ]
        out = render_gantt(trace, makespan=10.0, width=width)
        rows = {int(l.split("|")[0].split()[1]): l.split("|")[1]
                for l in out.splitlines() if l.startswith("card")}
        assert rows[0] == "#" * width
        assert rows[1][-1] == ">"
        assert rows[2][-1] == "."

    def test_max_nodes_cap_with_large_cluster(self):
        trace = [TraceEvent(i, "compute", "a", 0.0, 1.0)
                 for i in range(40)]
        out = render_gantt(trace, max_nodes=16)
        shown = [l for l in out.splitlines() if l.startswith("card")]
        assert len(shown) == 16
        assert "24 more cards" in out


class TestCli:
    def test_list(self):
        cap = _Capture()
        assert main(["list"], out=cap) == 0
        assert "Hydra-M" in cap.text
        assert "resnet18" in cap.text

    def test_run(self):
        cap = _Capture()
        assert main(["run", "-s", "Hydra-M", "-b", "resnet18",
                     "--no-energy"], out=cap) == 0
        assert "total time" in cap.text
        assert "ConvBN" in cap.text

    def test_resources(self):
        cap = _Capture()
        assert main(["resources"], out=cap) == 0
        assert "DSP" in cap.text

    def test_dft(self):
        cap = _Capture()
        assert main(["dft", "--slots", "12", "--cards", "8"],
                    out=cap) == 0
        assert "radices" in cap.text

    def test_trace_default_step(self):
        cap = _Capture()
        assert main(["trace", "-s", "Hydra-M", "-b", "resnet18"],
                    out=cap) == 0
        assert "card   0" in cap.text

    def test_trace_unknown_step(self):
        cap = _Capture()
        assert main(["trace", "-s", "Hydra-M", "-b", "resnet18",
                     "--step", "nonexistent"], out=cap) == 1
        assert "no step named" in cap.text

    def test_trace_chrome_format_validates(self, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        path = tmp_path / "t.json"
        cap = _Capture()
        assert main(["trace", "--format", "chrome",
                     "--out", str(path)], out=cap) == 0
        assert str(path) in cap.text
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(doc) > 0
        # Both sim tracks and host-side planner spans must be present.
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {0, 1}
        names = {e["name"] for e in doc["traceEvents"]}
        assert "plan.step" in names

    def test_trace_summary_format(self):
        import json

        cap = _Capture()
        assert main(["trace", "--format", "summary",
                     "-s", "Hydra-M", "-b", "resnet18"], out=cap) == 0
        payload = json.loads(cap.text)
        assert payload["system"] == "Hydra-M"
        assert payload["busy"] and payload["overlap"]["cards"]

    def test_trace_gantt_to_file(self, tmp_path):
        path = tmp_path / "gantt.txt"
        cap = _Capture()
        assert main(["trace", "--out", str(path)], out=cap) == 0
        assert "card   0" in path.read_text(encoding="utf-8")

    def test_profile_prints_overlap_and_metrics(self, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        path = tmp_path / "trace.json"
        cap = _Capture()
        assert main(["profile", "Hydra-M", "resnet18",
                     "--out", str(path)], out=cap) == 0
        assert "Per-card compute/communication overlap" in cap.text
        # One row per card with an overlap percentage.
        rows = [l for l in cap.text.splitlines()
                if l.strip().startswith(tuple("01234567")) and "%" in l]
        assert len(rows) >= 8
        assert "metric counters:" in cap.text
        assert "sched.planner.steps_mapped" in cap.text
        # ResNet-18 repeats step contents, so replays must show up.
        assert "sched.planner.step_memo_hits" in cap.text
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(doc) > 0

    def test_sweep(self):
        cap = _Capture()
        assert main(["sweep", "-b", "resnet18", "--cards", "1", "2"],
                    out=cap) == 0
        assert "Speedup" in cap.text

    def test_report(self):
        cap = _Capture()
        assert main(["report", "-b", "resnet18"], out=cap) == 0
        assert "SHARP" in cap.text
        assert "Hydra-L speedup" in cap.text

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
