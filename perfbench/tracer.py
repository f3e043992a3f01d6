"""In-memory span recorder with self-time accounting.

Every timed region is entered and exited in strict nesting order.  A
region's self time is its duration minus the durations of the regions
directly inside it.  Regions entered with ``record=True`` also leave a
span record (name, start, end, parent, run id); the others, such as the
thousands of autograd ops per step, are only summed per name, which
keeps memory bounded while their time still leaves their parent's self
time.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.run_id = "setup"
        self.spans: list[list] = []    # [name, start, end, parent index or -1, run id]
        self.totals: dict[str, list] = {}  # name -> [calls, total s, self s]
        self._stack: list[list] = []   # [name, start, child s, span index or -1]

    def enter(self, name: str, record: bool = True) -> None:
        start = self.clock()
        index = -1
        if record:
            index = len(self.spans)
            self.spans.append([name, start, None, self._open_span(), self.run_id])
        self._stack.append([name, start, 0.0, index])

    def exit(self) -> None:
        end = self.clock()
        name, start, child, index = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if index >= 0:
            self.spans[index][2] = end

    def _open_span(self) -> int:
        for frame in reversed(self._stack):
            if frame[3] >= 0:
                return frame[3]
        return -1

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def region(self, name: str, fn, record: bool = True):
        """``fn`` wrapped so that each call is one region named ``name``."""
        enter, exit_ = self.enter, self.exit

        def wrapped(*args, **kwargs):
            enter(name, record)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapped

    def write_spans(self, path) -> None:
        """One JSON object per span, times in seconds since the tracer began."""
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start - self.origin,
                                     "end": end - self.origin, "parent": parent,
                                     "run_id": run_id}) + "\n")


def layer_table(totals: dict[str, list]) -> dict[str, float]:
    """Self seconds per layer, the layer being a name's first dotted part.

    Self times partition the time covered by the outermost regions, so
    the values sum to that time.
    """
    table: dict[str, float] = {}
    for name, (_, _, self_s) in totals.items():
        layer = name.split(".", 1)[0]
        table[layer] = table.get(layer, 0.0) + self_s
    return dict(sorted(table.items(), key=lambda item: -item[1]))
