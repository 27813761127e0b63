"""Smoke-test the live ``/metrics`` endpoint during a ``repro stream`` run.

CI's observability job runs this script: it launches ``repro stream
--metrics-port 0`` as a subprocess, reads the advertised endpoint URL
off stdout, scrapes it repeatedly *while the run is still executing*,
and validates every scraped exposition line against the Prometheus
text-format grammar.  Stdlib only -- the scrape side deliberately uses
``urllib`` so the check exercises the exposition as an outside client
would, not through ``repro.obs`` itself::

    python scripts/ci_metrics_smoke.py
    python scripts/ci_metrics_smoke.py --scenario balanced_small --scrapes 5

Exit status is non-zero when the endpoint never comes up, a scrape
fails to parse, or the run itself fails.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import time
import urllib.request

URL_LINE = re.compile(r"serving metrics at (?P<url>http://\S+)")

#: ``name{labels} value`` -- the exposition sample-line grammar.
SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"
    r" ([0-9eE.+-]+|\+Inf|-Inf|NaN)$"
)

#: Metrics the stream run is guaranteed to expose once records flow.
#: Engine *counters* are bulk-exported at finish, so the live mid-run
#: signals are the run marker, the per-record latency histogram and --
#: because the run is spawned with ``--profile`` -- the profiler's
#: sample counter, listed at zero from the start of the capture (its
#: total is added when the capture stops).
EXPECTED_METRICS = (
    "repro_runs_total",
    "repro_verdict_seconds_count",
    "repro_profile_samples_total",
)


def validate_exposition(text: str) -> int:
    """Assert every non-comment line parses; return the sample count."""
    samples = 0
    for line in text.splitlines():
        if not line or line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        if not SAMPLE_LINE.match(line):
            raise ValueError(f"unparseable exposition line: {line!r}")
        samples += 1
    return samples


def scrape(url: str, timeout: float = 5.0) -> str:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        if response.status != 200:
            raise ValueError(f"GET {url} returned {response.status}")
        return response.read().decode("utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="amadeus_march_2018")
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scrapes", type=int, default=3, help="mid-run scrape count")
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=0,
        help="port to serve /metrics on (default 0: the OS picks a free one "
        "and the run advertises it, so parallel CI jobs never collide)",
    )
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args(argv)

    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "stream",
        "--scenario",
        args.scenario,
        "--scale",
        str(args.scale),
        "--seed",
        str(args.seed),
        "--metrics-port",
        str(args.metrics_port),
        # Profile the run too: the smoke test then also proves the
        # profiler's counter reaches the exposition mid-run.
        "--profile",
    ]
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    env["PYTHONUNBUFFERED"] = "1"

    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, text=True, bufsize=1
    )
    try:
        # The URL line is printed before the run starts executing.
        deadline = time.monotonic() + args.timeout
        url = None
        for line in process.stdout:
            match = URL_LINE.search(line)
            if match:
                url = match.group("url")
                break
        if url is None:
            raise RuntimeError("the stream run never advertised a metrics URL")
        print(f"scraping {url} while the stream runs")

        # Scrape until every expected counter has shown up mid-run (and at
        # least --scrapes expositions parsed), or the endpoint disappears
        # because the run finished.  The workload must therefore outlive
        # the first few scrapes -- the default scenario/scale does.
        bodies: list[str] = []
        seen_expected = False
        while True:
            if time.monotonic() > deadline:
                raise RuntimeError("timed out scraping the metrics endpoint")
            try:
                body = scrape(url)
            except OSError:
                if process.poll() is None and not bodies:
                    time.sleep(0.1)  # the server may still be coming up
                    continue
                break  # endpoint gone: the run is over
            samples = validate_exposition(body)
            bodies.append(body)
            print(f"scrape {len(bodies)}: {samples} parseable samples")
            seen_expected = all(name in body for name in EXPECTED_METRICS)
            if seen_expected and len(bodies) >= args.scrapes:
                break
            time.sleep(0.3)
        if not bodies:
            raise RuntimeError("never scraped the endpoint before the run finished")
        if not seen_expected:
            raise RuntimeError(
                "no mid-run scrape showed all of "
                + ", ".join(EXPECTED_METRICS)
                + " -- use a longer workload"
            )

        process.stdout.read()  # drain so the run can finish printing
        returncode = process.wait(timeout=args.timeout)
        if returncode != 0:
            raise RuntimeError(f"repro stream exited with status {returncode}")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()

    print("metrics endpoint smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
