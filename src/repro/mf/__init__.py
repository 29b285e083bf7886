"""Matrix-factorization substrate: synthetic ratings, ALS training, models."""
