"""The Bohrium-style byte-code intermediate representation.

This package defines the descriptive vector byte-code language from the
paper (Section 3): programs are linear sequences of instructions, each
instruction has an op-code, a result operand and up to two input operands,
and operands are either *views* over *base arrays* or scalar *constants*.

The main entry points are:

* :class:`OpCode` / :data:`OPCODE_INFO` — the op-code set and its metadata.
* :class:`BaseArray` — a storage descriptor (shape-less, just element count).
* :class:`View` — an offset/shape/stride window onto a base array.
* :class:`Constant` — a scalar literal operand.
* :class:`Instruction` — one byte-code.
* :class:`Program` — an ordered sequence of instructions.
* :class:`ProgramBuilder` — convenience constructor for programs.
* :func:`parse_program` / :func:`format_program` — the textual format used
  by the paper's listings.
* :func:`validate_program` — structural validation.
"""

from repro._exports import export_on_demand

export_on_demand(
    globals(),
    {
        "repro.bytecode.dtypes": (
            "DType",
            "float64",
            "float32",
            "int64",
            "int32",
            "bool_",
            "promote",
        ),
        "repro.bytecode.base": ("BaseArray",),
        "repro.bytecode.view": ("View",),
        "repro.bytecode.operand": ("Constant", "Operand", "is_constant", "is_view"),
        "repro.bytecode.opcodes": ("OpCode", "OpCodeInfo", "OPCODE_INFO", "opcode_info"),
        "repro.bytecode.instruction": ("Instruction",),
        "repro.bytecode.program": ("Program",),
        "repro.bytecode.builder": ("ProgramBuilder",),
        "repro.bytecode.printer": ("format_instruction", "format_program"),
        "repro.bytecode.parser": ("parse_program", "parse_instruction"),
        "repro.bytecode.validate": ("validate_program", "validate_instruction"),
    },
)
