"""kpsca: a desk-scale horizontal side-channel analysis lab.

Simulates a binary-field Montgomery kP accelerator at clock-cycle
resolution and mounts a single-trace comparison-to-the-mean attack on
the synthesized traces, end to end: field arithmetic, the ladder,
leakage synthesis, trace handling, key extraction, brute-force key
completion, and the ECDH challenge-response demo the attack threatens.
"""

from .curve import AffinePoint, CurveParams, Scalar, get_curve, kp_multiply, kp_point
from .leaksim import LeakModel, build_schedule, synthesize_trace
from .traces import CompressionMethod, Trace, compress, read_trace, segment, write_trace

__version__ = "0.1.0"

__all__ = [
    "AffinePoint", "CompressionMethod", "CurveParams", "LeakModel", "Scalar",
    "Trace", "build_schedule", "compress", "get_curve", "kp_multiply",
    "kp_point", "read_trace", "segment", "synthesize_trace",
    "write_trace", "__version__",
]
