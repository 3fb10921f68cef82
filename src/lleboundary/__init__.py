"""Boundary-aware locally linear embedding toolkit.

Build LLE matrices from sampled point clouds, analyze their (generally
complex) spectra, detect the manifold boundary through the barycentric
indicator, clip the wave region, and validate everything against the
closed-form boundary-layer operator coefficients.
"""

from .analytic import (AnalyticCoeffs, cap_coefficient, coefficient_table, moments_oracle,
                       sl_functions, sphere_volume)
from .boundary import BoundaryReport, classify, clip, default_threshold, indicator, partition_regions
from .harness import (PRESETS, ExperimentConfig, build_pipeline, run_convergence,
                      run_eigenfunctions, run_indicator, run_null_case)
from .lle import (BarycentricSolution, LleMatrix, apply_shifted, augmented_vector_discrete,
                  build_alpha_kernel_matrix, build_lle_matrix, default_regularizer,
                  row_moments, solve_barycentric)
from .neighbors import EpsilonBall, Knn, NeighborGraph, build_graph, local_data_matrix
from .samplers import (GroundTruth, PointCloud, sample_curve_m3, sample_disk,
                       sample_gaussian_null, sample_interval, sample_surface,
                       sample_truncated_torus)
from .spectral import (Spectrum, cluster_eigenvalues, eig, imaginary_diagnostics,
                       spectral_radius_report, symmetric_split)

__version__ = "0.1.0"
