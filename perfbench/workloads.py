"""The benchmark's workloads by name."""

from .serving import SERVE_CHURN, SERVE_HOT, run_serving
from .training import run_retrain

WORKLOADS = {
    "serve_hot": lambda ctx: run_serving(SERVE_HOT, ctx),
    "serve_churn": lambda ctx: run_serving(SERVE_CHURN, ctx),
    "retrain": run_retrain,
}
