"""Linear-algebra substrate: norms, angles, canonical top-K, blocked GEMM."""
