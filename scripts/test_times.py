#!/usr/bin/env python3
"""Run the workspace's tests one suite at a time and report each one's wall time.

A suite is one test binary (a crate's unit tests, one `tests/*.rs` file,
a binary's unit tests) or one package's doc tests: exactly what
`cargo test --workspace` runs, split by suite instead of in one stream.
Each binary runs from its package's directory with `CARGO_MANIFEST_DIR`
set and the toolchain's libraries on `LD_LIBRARY_PATH` (a proc-macro
crate's test binary links the shared `libstd`), as under `cargo test`
on Linux. Every suite runs even after one fails; the exit status is
non-zero if any failed.

Usage: scripts/test_times.py [--markdown]
  --markdown  print a GitHub-flavoured table (for $GITHUB_STEP_SUMMARY);
              the tests' own output goes to stderr either way
"""

import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cargo_json(*args):
    out = subprocess.run(
        ["cargo", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def timed(label, cmd, cwd, env=None):
    start = time.monotonic()
    ok = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode == 0
    return label, time.monotonic() - start, ok


def main():
    markdown = "--markdown" in sys.argv[1:]
    packages = cargo_json("metadata", "--no-deps", "--format-version", "1")[0]["packages"]
    by_manifest = {p["manifest_path"]: p for p in packages}
    libdir = subprocess.run(
        ["rustc", "--print", "target-libdir"], check=True, stdout=subprocess.PIPE, text=True
    ).stdout.strip()
    rows = []
    for msg in cargo_json("test", "--workspace", "--no-run", "--message-format=json"):
        if msg.get("reason") != "compiler-artifact" or not msg.get("executable"):
            continue
        if not msg["profile"]["test"]:
            continue
        pkg = by_manifest[msg["manifest_path"]]
        target = msg["target"]
        pkg_dir = os.path.dirname(msg["manifest_path"])
        env = dict(os.environ, CARGO_MANIFEST_DIR=pkg_dir)
        dylib_path = [os.path.dirname(msg["executable"]), libdir, env.get("LD_LIBRARY_PATH")]
        env["LD_LIBRARY_PATH"] = os.pathsep.join(p for p in dylib_path if p)
        label = f"{pkg['name']} {target['kind'][0]} {target['name']}"
        rows.append(timed(label, [msg["executable"], "-q"], pkg_dir, env))
    for pkg in packages:
        if any(t["doctest"] for t in pkg["targets"]):
            cmd = ["cargo", "test", "-q", "--doc", "-p", pkg["name"]]
            rows.append(timed(f"{pkg['name']} doctests", cmd, ROOT))

    rows.sort(key=lambda r: -r[1])
    total = sum(r[1] for r in rows)
    if markdown:
        print("| test suite | wall s | result |")
        print("|---|---:|---|")
        for label, secs, ok in rows:
            print(f"| `{label}` | {secs:.1f} | {'ok' if ok else 'FAILED'} |")
        print(f"| **total** ({len(rows)} suites) | {total:.1f} | |")
    else:
        for label, secs, ok in rows:
            print(f"{secs:8.1f} s  {'ok    ' if ok else 'FAILED'}  {label}")
        print(f"{total:8.1f} s  total ({len(rows)} suites)")
    failed = [label for label, _, ok in rows if not ok]
    if failed:
        print(f"failed suites: {', '.join(failed)}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
