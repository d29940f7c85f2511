"""Fixed-depth compression and simulation of spin-chain dynamics circuits.

Trotterized time evolution of the one-dimensional Heisenberg family is
rewritten, through local merge and braid identities on two-qubit
propagators, into a circuit whose depth is independent of the step count.
Dense linear-algebra references are included for end-to-end verification.

The package itself exposes only __version__; import from the submodules
(spinchain.circuit_ir, spinchain.compressor, spinchain.simulator, ...).
"""

__version__ = "0.1.0"
