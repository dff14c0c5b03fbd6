"""Intersections of congruent balls on spheres.

Exact boundary structure, area, inradius and duality for ball
intersections on S^2; the exact width 2r - diam X and dimension-generic
centers, volumes and hulls on S^d; a numerical replay of the minimal-area
argument; and a verification campaign that checks every inequality on
sampled corpora.
"""

from .sphere import (
    ALG_TOL,
    BallSpec,
    DegeneracyError,
    GeneratorSet,
    Lune,
    diameter,
    dual_membership,
    geo_tol,
    geodesic_point,
    jung_circumradius,
    membership_margin,
    membership_mask,
    pairwise_distances,
    sample_cap,
    sample_uniform,
    sample_wide_generator,
    set_geo_tol,
    spherical_distance,
    tangent_basis,
    tangent_toward,
    unit_vector,
)
from .ballbody import (
    MinimaxResult,
    SimplexBody,
    VolumeEstimate,
    boundary_sample_dual,
    cap_volume,
    circumradius_minimax,
    hull_diameter,
    inradius_nd,
    mc_volume,
    minimax_center,
    pole_margin_certificate,
    r_hull,
    schramm_bound,
    simplex_body,
    sphere_volume,
    width_nd,
)
from .diskpoly import (
    Arc,
    ArcBoundary,
    ArcPiece,
    BodyMetrics,
    arc_polygon_area,
    area,
    boundary_structure,
    circle_intersection,
    hull_diameter_2d,
    inradius_2d,
    metrics,
    perimeter,
    reuleaux_area,
    reuleaux_triangle,
    support_margin_2d,
    support_margins_2d,
    width_2d,
)
from .proofreplay import (
    ArmProfile,
    CapDomain,
    CapSpec,
    ContactClassification,
    ProofTrace,
    VerificationFailure,
    build_cap_domain,
    build_symmetric_cap_domain,
    cauchy_arm_profile,
    classify_contact,
    replay_instance,
)
from .oracles import OracleResult, oracle_area_mc, oracle_width_grid
from .campaign import (
    CampaignCell,
    CampaignConfig,
    VerificationReport,
    default_config,
    evaluate_instance,
    instance_from_record,
    reports_all_passed,
    run_campaign,
    write_reports,
)
from .svgfig import render_svg

__version__ = "0.1.0"
