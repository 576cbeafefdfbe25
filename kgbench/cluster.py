"""Start and stop the local Ray cluster every workload runs on.

The cluster declares ``NUM_CPUS`` logical CPUs whatever the host has.  Two
is the smallest count at which ``run_kg`` makes progress: with one logical
CPU the MentionStage actor pool takes the only CPU and the ReadParquet
tasks feeding it can never be scheduled, so the run hangs (the 1-CPU
deadlock in ROADMAP item 4a).  The benchmark does not measure that fault.
A fixed count also keeps the plan shape (actor-pool size, bucket counts)
the same on every host, so figures compare like with like.
"""

from __future__ import annotations

import os
import platform
import sys

from kgbench import proctree

NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 * 1024**2
# Ray refuses unix-socket paths longer than 107 bytes; the session
# directory and its plasma socket add at most 64 characters to the temp dir.
_SOCKET_SUFFIX = 64


def host_shape() -> dict:
    import ray

    with open("/proc/meminfo") as f:
        mem_kb = int(f.readline().split()[1])
    return {
        "nproc": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_gib": round(mem_kb / 1024**2, 1),
        "ray": ray.__version__,
        "python": platform.python_version(),
        "logical_cpus": NUM_CPUS,
    }


class Cluster:
    """``with Cluster(root, work, trace_dir=...)``: a local Ray session
    whose workers import the package from ``root`` and whose logs stay in
    ``work``; on exit Ray is shut down and every process it started is
    waited for."""

    def __init__(self, root: str, work: str, trace_dir: str | None = None):
        self.root = root
        self.trace_dir = trace_dir
        self.temp_dir = os.path.join(work, "r")
        if len(self.temp_dir) + _SOCKET_SUFFIX > 107:
            print("[kgbench] checkout path too long for Ray sockets; "
                  "using Ray's default temp dir", file=sys.stderr)
            self.temp_dir = None

    def __enter__(self) -> "Cluster":
        import ray

        # the package and the harness import from the checkout in every
        # worker, whatever the working directory
        pythonpath = os.pathsep.join(p for p in (self.root, os.environ.get("PYTHONPATH")) if p)
        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
        runtime_env = {"env_vars": {"PYTHONPATH": pythonpath}}
        if self.trace_dir is not None:
            runtime_env["env_vars"]["KGBENCH_TRACE_DIR"] = self.trace_dir
            runtime_env["worker_process_setup_hook"] = "kgbench.tracing.install_worker"
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            num_gpus=0,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            runtime_env=runtime_env,
            _temp_dir=self.temp_dir,
        )
        from ray.data import DataContext

        # the "Execution plan of Dataset" lines stay on: the traced run
        # counts executions from them in Ray Data's log
        DataContext.get_current().enable_progress_bars = False
        return self

    def ray_data_log(self) -> str:
        """Path of Ray Data's per-session log (DEBUG operator metrics)."""
        import ray

        session = ray._private.worker.global_worker.node.get_session_dir_path()
        return os.path.join(session, "logs", "ray-data", "ray-data.log")

    def __exit__(self, *exc) -> None:
        import ray

        pids = [p for p in proctree.tree_pids() if p != os.getpid()]
        ray.shutdown()
        left = proctree.wait_gone(pids, 30.0)
        for pid in left:
            try:
                os.kill(pid, 9)
            except ProcessLookupError:
                pass
        proctree.wait_gone(left, 10.0)
