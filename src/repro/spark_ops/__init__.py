"""PySpark operator layer: strategies as DataFrame → DataFrame transforms."""
