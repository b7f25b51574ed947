"""Known-bad fixture for RL005: raw pools outside repro.exec.

Line numbers are asserted exactly in tests/test_analysis.py.
"""

import concurrent.futures
from concurrent.futures import ThreadPoolExecutor


def churn(tasks):
    with ThreadPoolExecutor(max_workers=len(tasks)) as pool:  # line 11
        list(pool.map(lambda t: t(), tasks))


def escape(tasks):
    pool = concurrent.futures.ThreadPoolExecutor(2)  # line 16
    try:
        return list(pool.map(lambda t: t(), tasks))
    finally:
        pool.shutdown()
