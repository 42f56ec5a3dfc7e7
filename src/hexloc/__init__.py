"""hexloc: azimuth estimation and 2D speaker localization for compact
hexagonal microphone arrays.

The pipeline band-passes six-channel recordings, estimates all-pairs time
differences of arrival with PHAT-whitened cross-correlation and subsample
peak refinement, matches the delay vector on an azimuth grid (with a
wideband incoherent MUSIC baseline), and fuses bearings from two or more
arrays into a 2D position with least-squares, RANSAC, or IRLS solvers.
"""

from .aoa import (AoaEstimate, AoaMethod, AoaSpectrum, CovarianceStack,
                  baseline_aoa_gcc_phat, circular_error_deg, covariance_stack,
                  estimate_aoa_gcc, estimate_aoa_music)
from .dsp import (MultichannelRecording, Spectrum, bandpass,
                  bandpass_recording, cross_power, inverse_real_spectrum,
                  phat_weight, real_spectrum)
from .errors import (AmbiguousEstimateError, NoSignalError, SceneConfigError,
                     UnlocalizableError)
from .geometry import (MicArray, PropagationModel, azimuth_to,
                       build_hex_array, element_delays, mic_pairs,
                       pair_baseline, predicted_pair_delay,
                       spatial_resolution, unit_direction)
from .localize import (BearingLine, LocalizationResult, solve_irls,
                       solve_mle, solve_ransac)
from .pipeline import (EvalSummary, PipelineConfig, estimate_recording_aoa,
                       localize_recordings, run_eval, summarize)
from .sim import (Echo, GroundTruth, Scene, default_array_layout,
                  sample_scenarios, synthesize)
from .tdoa import (DelayVector, PairDelay, estimate_pair_delay,
                   expand_delay_features)

__version__ = "0.1.0"
