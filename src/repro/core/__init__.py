"""The paper's contributions: RECDEX (index) and RECOPT (optimizer)."""
