"""ragfuzz: retrieval-augmented LLM compiler fuzzing with differential testing.

The package drives an end-to-end campaign: extract functions from compiler
pass sources, index documentation for retrieval, generate SYCL test programs
through a two-stage LLM flow with a bounded compile/repair loop and X-fold
mutation, sweep a compiler/target/opt-level/device matrix, and classify
behavioral discrepancies between cells.
"""

__version__ = "0.1.0"
