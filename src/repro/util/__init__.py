"""Shared utility substrate: compact rank sets, timing histograms,
RLE value sequences, rank-parameterized expressions, call-site signatures,
and the spec-file codec (:mod:`repro.util.specfile`)."""

from repro.util.callsite import Callsite, capture_callsite
from repro.util.expr import ANY_SOURCE, ParamExpr
from repro.util.histogram import TimeHistogram
from repro.util.rankset import RankSet
from repro.util.valueseq import ValueSeq

__all__ = [
    "ANY_SOURCE",
    "Callsite",
    "ParamExpr",
    "RankSet",
    "TimeHistogram",
    "ValueSeq",
    "capture_callsite",
]
