"""Set-up and import probes, each run in a fresh interpreter by run.py.

    probe.py setup <workload> <workdir>   import what the workload calls and
                                          finish its smallest op
    probe.py import <module>              import one module

Prints the elapsed seconds, measured from the top of this script and scaled
to the reference speed by calibration samples taken right after (speed.py).
"""
import sys
import time

START = time.perf_counter()
CALIBRATION_SAMPLES = 25


def main(argv) -> int:
    if argv[0] == "setup":
        import workloads

        workloads.smallest_op(argv[1], argv[2])
    elif argv[0] == "import":
        __import__(argv[1])
    else:
        raise SystemExit(f"unknown probe {argv[0]!r}")
    elapsed = time.perf_counter() - START
    import speed

    print(f"{elapsed * speed.factor([speed.sample() for _ in range(CALIBRATION_SAMPLES)]):.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
