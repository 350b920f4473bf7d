"""equicode: group-algebra arithmetic and equivariant codes over finite fields."""

from .ff import FieldCtx, count_field_ops, field_make, root_of_unity
from .galg import (
    AbelianGroup,
    FourierImage,
    GroupAlgebraElement,
    ft_group,
    ft_inverse,
    ga_add,
    ga_from_ints,
    ga_involution,
    ga_mul_fast,
    ga_mul_naive,
    ga_one,
    ga_rand,
    ga_scale,
    ga_sigma,
    ga_sub,
    ga_zero,
)
from .kgmat import (
    KGMatrix,
    equivariant_projection,
    expand,
    expanded_rank,
    kg_apply,
    kg_from_rows,
    kg_identity,
    kg_matmul,
    kg_transpose,
    kg_zero,
    systematize,
)
from .blackbox import (
    BlackBoxOperator,
    operator_from_matrix,
    wiedemann_kernel_sample,
    wiedemann_solve,
)
from .code import (
    EquivariantCode,
    cyclic_cover_code,
    encode,
    genus2_example_code,
    interpolate,
    parity_check,
    rs_degenerate_code,
    synth_split_code,
    validate,
)
from .decode import (
    DecodeResult,
    DecoderData,
    PadeApproximant,
    basic_decode,
    basic_radius,
    denominator_check,
    find_denominator,
    make_cyclic_decoder_data,
    make_rs_decoder_data,
    make_split_decoder_data,
    pade_numerator,
)
from .files import load_code, load_decoder, load_vector, save_code, \
    save_decoder, save_vector

__version__ = "0.1.0"
