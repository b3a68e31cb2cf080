"""Combinatorial Schubert calculus: permutations and reduced words, tableaux,
pipe dreams, the Schubert/Grothendieck/Schur/slide/glide polynomial families
with their expansions, Monk and Pieri shuffle bijections on words, and the
subword, slide and tableau simplicial complexes with ball/sphere
classification.
"""
from .perms import (
    Permutation,
    Word,
    ParseError,
    parse_permutation,
    format_permutation,
    parse_word,
    format_word,
    prod_word,
    is_reduced,
    demazure,
    reduced_words,
    lehmer_code,
    from_lehmer_code,
    tau,
    bruhat_cover,
    bruhat_leq,
    wiring_sweep,
    wiring_label,
    cross_labels,
    defects,
    compatible_sequences,
    symmetric_group,
)
from .shapes import (
    Komposition,
    flatten,
    refines,
    composition_to_set,
    set_to_composition,
    enumerate_tableaux,
    content,
    kontent,
    is_glide,
    standardize,
    descent_set,
    classify_set_valued,
)
from .pipedreams import (
    PipeDream,
    bottom_pipe_dream,
    reduced_pipe_dreams,
    all_pipe_dreams,
    chute_moves,
    ladder_moves,
    is_quasi_yamanouchi,
    quasi_yamanouchi_pipe_dreams,
    from_word_and_rows,
)
from .poly import (
    Polynomial,
    schubert,
    grothendieck,
    schur,
    fundamental_quasisymmetric,
    slide,
    slide_of_word,
    glide,
    glide_of_word,
    backstable_truncation,
    expand_schubert_into_slides,
    expand_schur_into_fundamentals,
    expand_grothendieck_into_glides,
)
from .complexes import (
    SimplicialComplex,
    Classification,
    classify_ball_or_sphere,
    is_vertex_decomposable,
    vertex_decomposition,
    stanley_reisner_generators,
    subword_complex,
    slide_complex,
    word_set_complex,
    is_backwards_saturated,
    tableau_complex,
    interior_faces,
    ssyt_standardization_decomposition,
)
from .shuffles import (
    INF,
    InvariantError,
    MarkedWord,
    insert_slots,
    monk_shuffle,
    monk_unshuffle,
    pieri_shuffle,
    pieri_unshuffle,
    monk_covers,
    monk_rhs,
    cycle_factor,
    pieri_targets,
    pieri_relation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
