"""Fig. 8 (as a table): RECDEX stage breakdown + blocking lesion study.

Usage: spark-submit jobs/fig8_breakdown.py [--scale 1.0]

The paper uses Netflix-NOMAD f=50 (large w̄) and R2-NOMAD f=50 (smaller
w̄) at 0.5M–1.8M users.  The breakdown's shape — serving dominating index
construction, sharing speedup growing with w̄ — requires w̄ ≥ B with
n ≫ B, which the grid's item-compressed analogs cannot provide.  This
job therefore builds two dedicated breakdown models at the paper's
B = 4096 with 40K items: ``netflix-bd`` (looser clusters ⇒ larger w̄)
and ``r2-bd`` (tighter clusters ⇒ smaller w̄), playing the same roles as
the paper's two models.
"""
from pyspark.sql import DataFrame, SparkSession

from repro.experiments.fig8 import breakdown
from repro.mf.models import concentration_model


def breakdown_models(scale: float = 1.0) -> list:
    m = max(64, int(8000 * scale))
    n = max(64, int(40000 * scale))
    return [
        concentration_model(
            name="netflix-bd", n_users=m, n_items=n, f=32, kappa=50.0, seed=1
        ),
        concentration_model(
            name="r2-bd", n_users=m, n_items=n, f=32, kappa=500.0, seed=2
        ),
    ]


def run(spark: SparkSession, *, scale: float = 1.0) -> DataFrame:
    # B = 1024 keeps the paper's prefix-to-item-count ratio (4096 / ~17K
    # items ≈ 1024 / 40K·scale at our default w̄).
    bd = breakdown(breakdown_models(scale), block=1024)
    print(bd.round(4).to_string())
    return spark.createDataFrame(bd.reset_index())


if __name__ == "__main__":
    from _common import get_spark, scale_arg

    args = scale_arg()
    spark = get_spark("fig8")
    run(spark, scale=args.scale).show(truncate=False)
    spark.stop()
