"""qdescent: low-bit weight quantization by coordinate descent.

Quantizes neural-network layer weights to 1..8-bit integer codes by
minimizing the calibration-weighted reconstruction loss with greedy and
randomized-block coordinate descent, clip-strength initialization, grouped
(sub-channel) scales, and an exhaustive oracle for verification.
"""

from .calibration import (ShapeMismatchError, SynthSpec, build_hessian, clip_hessian_eigenvalues,
                          gen_calibration, gen_weights)
from .descent import (DescentTrace, TraceStep, bcd_quantize, cd_quantize, descend, dump_trace,
                      quantize_matrix)
from .groupquant import OwcCdResult, default_gamma_grid, owc_cd, owc_group_init, tilde_transform
from .oracle import OracleResult, VerifyReport, brute_force, canonical_problem, verify_trace
from .quantcore import (ChannelProblem, DegenerateChannelError, EnumerationGuardError,
                        QuantizedLayer, RunSettings, channel_objective, load_layer, owc_quantize,
                        round_half_away, save_layer, zero_baseline)
from .tensorio import (BenchRecord, MalformedHeaderError, NonFiniteDataError, PackedCodes,
                       PayloadMismatchError, TensorContainer, TensorIOError, emit_report,
                       pack_codes, read_container, read_packed, unpack_codes, write_container,
                       write_packed)

__version__ = "0.1.0"
