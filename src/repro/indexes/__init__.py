"""MIPS serving strategies: brute force and baseline indexes (LEMP, FEXIPRO)."""
