"""toruscut: exact contact cuts of torus-invariant contact forms.

The package validates cut data for rotating contact forms on T^2 x [0, 1],
classifies the resulting closed contact manifolds (sphere, S^1 x S^2, lens
spaces), and computes the equivariant invariants that tell the results
apart.  All decisions are made in exact integer and rational arithmetic;
floats appear only in reported approximations.
"""

from .angles import (
    Angle,
    AngleForm,
    Direction,
    QUARTER_TURN,
    ZERO_ANGLE,
    add_half_turns,
    add_turns,
    angle_add,
    angle_compare,
    angle_sub,
    ceil_half_turns,
    count_lattice,
    direction_angle,
    floor_half_turns,
    format_angle,
    is_zero,
    parse_angle,
)
from .errors import (
    BadBreakpoints,
    DomainMismatch,
    EndpointMismatch,
    GeometryError,
    InvalidCutSpec,
    NonMonotone,
    NonPositiveRadial,
    NonPrimitive,
    OutsideDomain,
    SliceNotRepresentable,
    SpecSemanticError,
    SpecSyntaxError,
    ZeroSlopeSegment,
    ZeroVector,
)
from .forms import (
    AngleProfile,
    InvariantContactForm,
    MomentValue,
    ProfilePoint,
    RadialProfile,
    contact_check,
    moment_eval,
    moment_sign,
    rescale,
    sweep,
)
from .cuts import (
    CutSpec,
    LensDescriptor,
    LensKind,
    ReducedCircle,
    Violation,
    classify_lens,
    complement_vector,
    contact_reduce,
    require_valid,
    slice_by_ray,
    validate_cutspec,
)
from .invariants import (
    MODE_FIXED,
    MODE_GL2Z,
    Arc,
    CCProfile,
    DistinguishWitness,
    HomotopyCertificate,
    OvertwistedCertificate,
    PlanarZero,
    cc_count,
    cc_profile,
    detect_overtwisted,
    distinguish,
    homotopy_certificate,
)
from .models import (
    alpha_cutspec,
    alpha_form,
    lens_cutspec,
    minimal_valid_cutspec,
    rotating_line_form,
    theta_angle,
)
from .report import (
    Item,
    Record,
    Report,
    render_json,
    render_text,
    report_from_json,
)
from .specfile import parse_spec, parse_spec_file
from .symplectization import (
    CheckRow,
    CommutationReport,
    check_cut_symplectization_commute,
    sympl_moment_eval,
    sympl_moment_sign,
)

__version__ = "0.1.0"
