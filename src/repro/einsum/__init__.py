"""Extended Einsum intermediate representation (EDGE subset).

The public authoring API:

>>> from repro.einsum import ref, Einsum, Cascade, Map, MUL
>>> gemm = Einsum(
...     output=ref("Z", "m", "n").ref,
...     expr=Map(MUL, ref("A", "k", "m"), ref("B", "k", "n")),
...     name="Z",
... )

The names load with their defining submodule on first use (see
:mod:`repro._lazy`), so building cascades never loads the parser; code
inside the package imports the defining submodule.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "cascade": ("Cascade", "CascadeError", "IterativeRank"),
        "einsum": ("Einsum",),
        "index": ("Affine", "Filter", "Fixed", "IndexExpr", "Shifted", "Var", "resolve_symint"),
        "ops": (
            "ADD",
            "DIV",
            "EXP",
            "MAX",
            "MAX_REDUCE",
            "MUL",
            "MapOp",
            "NEG",
            "ReduceOp",
            "SIGMOID",
            "SUB",
            "SUB_THEN_EXP",
            "SUM_REDUCE",
            "UnaryOp",
            "map_op",
            "reduce_op",
            "unary_op",
        ),
        "parser": ("ParseError", "parse_einsum"),
        "tensor": ("Expr", "Leaf", "Literal", "Map", "TensorRef", "Unary", "ref"),
    },
)
