"""Machine-speed readings taken beside the measured work.

Shared virtual machines, such as the 2-vCPU one the README's figures come
from, change speed as a whole, by 20-40 % within seconds, as other tenants
come and go. Averaging over more documents cannot remove that, so every
timing is scaled by a reading of the machine's speed taken at the same time:
a fixed reference job that runs no legalc code is timed between pieces of
measured work, and the run's times are multiplied by ``(nominal / median
reference time) ** exponent``. A faster legalc still shows in full; only
drift that slows the reference and the work alike cancels.

Two references, matched to the work they scale: :func:`reference`, small
pure-Python work like the pipeline's, for in-process timings; and a bare
``python -c pass`` process for whole ``python -m legalc`` runs (see run.py).
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass
from time import perf_counter

# The in-process reference's typical time on the machine the README's
# figures come from; timings are reported at this speed.
REFERENCE_MS = 0.40
# How strongly in-process legalc work follows the reference when the machine
# changes speed: part of its time waits on memory, which the reference
# (all in cache) does not.  Fitted as the log-log slope of unscaled
# throughput against the reference over 10-run sets: 0.73 (batch-mixed),
# 0.66 (large-docs), ~0.7 over six minutes of large-docs windows.
REFERENCE_EXPONENT = 0.7

_TEXT = ("مرسوم رقم ٢٥ بناء على الدستور، وبعد الاطلاع على القانون. "
         "يرسم ما يأتي: مادة ١: ينشر هذا المرسوم ويبلغ حيث تدعو الحاجة\n") * 6
_FOLD = str.maketrans({"أ": "ا", "إ": "ا", "آ": "ا", "ة": "ه", "ى": "ي", "ـ": None})
_KEYS = {"بناء": 1, "وبعد": 1, "يرسم": 2, "مرسوم": 3, "ماده": 4}


@dataclass(frozen=True)
class _Word:
    text: str
    start: int
    end: int


def _reference_work() -> int:
    lines, offset = [], 0
    for raw in _TEXT.split("\n"):
        words = []
        for w in raw.split(" "):
            words.append(_Word(w, offset, offset + len(w)))
            offset += len(w) + 1
        lines.append(tuple(words))
    found = [(_KEYS.get(folded, 0), folded, w.start)
             for line in lines for w in line
             for folded in (w.text.rstrip("،.:").translate(_FOLD),)]
    return len(" ".join(f for _, f, _ in found))


def reference() -> float:
    """Seconds taken by fixed pure-Python work shaped like preprocessing and
    keyword lookup: small objects per word, folding, dict probes, a join.
    Garbage collections the measured work left pending stay with that work."""
    gc.disable()
    try:
        t0 = perf_counter()
        _reference_work()
        return perf_counter() - t0
    finally:
        gc.enable()


class SpeedProbe:
    """Runs ``measure`` (which returns its own seconds) after each piece of
    work until it has taken ``share`` of the work's time, so that its
    readings are spread over the run as the work is."""

    def __init__(self, measure=reference, nominal: float = REFERENCE_MS / 1e3,
                 share: float = 0.1, exponent: float = REFERENCE_EXPONENT):
        self.measure, self.nominal, self.share, self.exponent = measure, nominal, share, exponent
        self.samples: list[float] = []
        self._work = self._spent = 0.0

    def after(self, seconds: float) -> None:
        """Account one piece of measured work that took ``seconds``."""
        self._work += seconds
        while self._spent < self.share * self._work or not self.samples:
            self.samples.append(self.measure())
            self._spent += self.samples[-1]

    def factor(self) -> float:
        """Multiply a time measured during the run by this."""
        return (self.nominal / statistics.median(self.samples)) ** self.exponent
