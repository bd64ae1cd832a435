#!/usr/bin/env python3
"""Lists the library functions that no shipped binary links, and gates on it.

    python3 tools/unused_code.py

Run it from anywhere; it scans the checkout it sits in. It configures
build-unused/ at -O0 with one section per function and per data object
(-ffunction-sections -fdata-sections) and links with -Wl,--gc-sections,
tests off, then builds every bench and example there and dsebench/ in
build-unused/dsebench. A function is reached when its symbol survives in
some bench, example or dsebench binary; the library functions are the
global text (`T`) symbols of each libsoc_*.a. Inline and template code is
weak and is not counted.

-fdata-sections matters: without it a switch's jump table in a shared
.rodata section keeps every function that section names linked.

It prints each unreached function and exits nonzero when
  - bench_micro was not built (Google Benchmark missing): its callers
    would be missed;
  - an unreached function is not on KEEP;
  - a KEEP name is now reached, or no longer exists.
KEEP lists names without parameter lists, grouped under the reason each
group stays; a name covers all of its overloads.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-unused")

FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]

KEEP = {
    # Tests read these to check types that the binaries do run.
    "counters, accessors and operations that tests read": [
        "soc::core::EvalCache::~EvalCache",
        "soc::core::TaskGraph::sinks",
        "soc::core::TaskGraph::sources",
        "soc::dsoc::Broker::try_resolve",
        "soc::dsoc::Skeleton::method_count",
        "soc::mem::Cache::flush",
        "soc::noc::Floorplan::router_position",
        "soc::noc::LinkTimingModel::LinkTimingModel",
        "soc::noc::Topology::hops_between",
        "soc::proc::Cpu::complete_remote",
        "soc::proc::Cpu::pending",
        "soc::proc::Cpu::reset",
        "soc::proc::disassemble",
        "soc::proc::mt_transactions_per_cycle",
        "soc::sim::Rng::next_exponential",
        "soc::sim::Rng::next_in",
        "soc::sim::Rng::next_normal",
        "soc::sim::RunningStats::merge",
        "soc::sim::RunningStats::stddev",
        "soc::sim::RunningStats::variance",
        "soc::sim::SampleSet::max",
        "soc::sim::SampleSet::min",
        "soc::tlm::LoopbackTransport::endpoint_count",
        "soc::tlm::LoopbackTransport::messages_delivered",
        "soc::tlm::MemoryEndpoint::peek",
        "soc::tlm::SocketTransport::connection_count",
        "soc::tlm::SocketTransport::frames_received",
        "soc::tlm::SocketTransport::last_error",
        "soc::tlm::SocketTransport::messages_delivered",
    ],
    # The linear-scan oracle the trie and engine tests compare against.
    "LPM reference": [
        "soc::apps::linear_lpm",
    ],
    # Public soc::core API, documented in its headers for library users
    # (README shows on_point): the streaming observer, and the front
    # marker over plain points that the tests drive dominance through.
    "documented public API": [
        "soc::core::DseSession::on_point",
        "soc::core::ObjectiveSpace::mark_front",
    ],
    # The aggregate that the planned counters-and-spans facility
    # (ROADMAP) builds on.
    "sim::Histogram": [
        "soc::sim::Histogram::Histogram",
        "soc::sim::Histogram::push",
        "soc::sim::Histogram::quantile",
        "soc::sim::Histogram::reset",
    ],
    # The header unit the IPv4 fast path parses, validates and rewrites;
    # the workload models its cost in cycles, and tests check the codec.
    "IPv4 header codec": [
        "soc::apps::checksum_ok",
        "soc::apps::forward_transform",
        "soc::apps::header_checksum",
        "soc::apps::parse",
        "soc::apps::serialize",
    ],
    # The paper's pipelined fixed-function IP block (Section 6.4), the
    # platform model's third endpoint kind beside memory and sink.
    "tlm::FixedFunctionEndpoint": [
        "soc::tlm::FixedFunctionEndpoint::FixedFunctionEndpoint",
        "soc::tlm::FixedFunctionEndpoint::handle",
        "soc::tlm::FixedFunctionEndpoint::pump",
    ],
}


def step(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("unused_code: step failed: " + " ".join(cmd))


def build():
    """Builds the benches, examples and dsebench; returns their binaries."""
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "-S", ROOT, "-B", BUILD, "-DSOC_BUILD_TESTS=OFF",
          "-DSOC_WERROR=OFF"] + FLAGS)
    step(["cmake", "--build", BUILD, "-j", jobs])
    dsebench = os.path.join(BUILD, "dsebench")
    step(["cmake", "-S", os.path.join(ROOT, "dsebench"), "-B", dsebench] + FLAGS)
    step(["cmake", "--build", dsebench, "-j", jobs])
    binaries = []
    for d in ("bench", "examples", "dsebench"):
        path = os.path.join(BUILD, d)
        for name in sorted(os.listdir(path)):
            f = os.path.join(path, name)
            if os.path.isfile(f) and os.access(f, os.X_OK):
                binaries.append(f)
    if os.path.join(BUILD, "bench", "bench_micro") not in binaries:
        sys.exit("unused_code: bench_micro was not built (install Google "
                 "Benchmark); its callers would be missed")
    return binaries


def symbols(path, text_only):
    """Demangled names of the symbols `path` defines (`T` ones only when
    `text_only`)."""
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and (parts[1] == "T" or not text_only):
            names.add(parts[2])
    return names


def bare(signature):
    """The name of a demangled function signature, without its parameter
    list, qualifiers or ABI tags."""
    s = re.sub(r"\[abi:[^\]]*\]", "", signature)
    end = s.rfind(")")
    depth = 0
    for i in range(end, -1, -1):
        depth += {")": 1, "(": -1}.get(s[i], 0)
        if depth == 0:
            return s[:i]
    return s


def main():
    binaries = build()
    linked = set()
    for b in binaries:
        linked |= symbols(b, text_only=False)
    defined = set()
    for dirpath, _, files in os.walk(os.path.join(BUILD, "src")):
        for f in files:
            if f.startswith("libsoc_") and f.endswith(".a"):
                defined |= symbols(os.path.join(dirpath, f), text_only=True)

    unreached = sorted(defined - linked)
    keep = {name for names in KEEP.values() for name in names}
    print("%d binaries, %d library functions, %d unreached"
          % (len(binaries), len(defined), len(unreached)))
    for s in unreached:
        print("  " + s)

    problems = []
    unreached_names = {bare(s) for s in unreached}
    for name in sorted(unreached_names - keep):
        problems.append("unreached and not on KEEP: " + name)
    defined_names = {bare(s) for s in defined}
    for name in sorted(keep - unreached_names):
        state = "now reached" if name in defined_names else "no longer exists"
        problems.append("KEEP name %s: %s" % (state, name))
    for p in problems:
        print(p)
    print("unused_code: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
