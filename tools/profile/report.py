#!/usr/bin/env python3
"""Summarizes a profile written by the hkprof sampler (tools/profile).

  report.py PROFILE [--thread NAME] [--from S] [--expect NAME:TEXT ...]

Prints, for each thread name, the share of all samples its threads took
and three tables of shares of that thread's samples, at most 15 rows each:

  self        the function each sample was in. Library code is counted in
              the nearest hkws:: function that called it: std:: templates
              inlined or instantiated in the binary, and shared libraries,
              whose stripped symbol tables label glibc's static malloc
              internals with neighbouring exported names (timer_settime,
              __default_morecore, ...).
  libraries   samples whose innermost frame is in a shared library, by
              library and by that nearest hkws:: caller, so malloc under
              a scan and the write syscall under the socket writer stay
              apart.
  inclusive   every hkws:: function on the sample's stack, once per sample.

--from keeps the samples taken from that many seconds after the first
sample on, to leave out a benchmark's set-up. Addresses are symbolized
with addr2line (binutils), inlined frames included, from the executable
mappings the sampler recorded. With --expect, the exit status is 1 unless
thread NAME is in the profile and an hkws:: function containing TEXT is on
the stack of one of its samples.
"""

import argparse
import bisect
import collections
import os
import struct
import subprocess
import sys

PROJECT = "hkws::"
ROWS = 15  # per table


def elf_segments(path):
    """The loadable segments of a 64-bit ELF file: (offset, size, vaddr)."""
    try:
        with open(path, "rb") as f:
            head = f.read(64)
            if len(head) < 64 or head[:4] != b"\x7fELF" or head[4] != 2:
                return []
            end = "<" if head[5] == 1 else ">"
            phoff = struct.unpack(end + "Q", head[32:40])[0]
            phentsize, phnum = struct.unpack(end + "HH", head[54:58])
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    out = []
    for i in range(phnum):
        ph = table[i * phentsize:(i + 1) * phentsize]
        p_type = struct.unpack(end + "I", ph[0:4])[0]
        offset, vaddr, _, filesz = struct.unpack(end + "QQQQ", ph[8:40])
        if p_type == 1:  # PT_LOAD
            out.append((offset, filesz, vaddr))
    return out


class Maps:
    """Maps a sampled address to (object path, address within the object)."""

    def __init__(self, maps):
        self.maps = sorted(maps)
        self.starts = [m[0] for m in self.maps]
        self.segments = {}

    def locate(self, pc):
        i = bisect.bisect_right(self.starts, pc) - 1
        if i < 0:
            return None
        start, end, offset, path = self.maps[i]
        if pc >= end:
            return None
        file_offset = pc - start + offset
        if path not in self.segments:
            self.segments[path] = elf_segments(path)
        for seg_offset, size, vaddr in self.segments[path]:
            if seg_offset <= file_offset < seg_offset + size:
                return path, file_offset - seg_offset + vaddr
        return path, file_offset


def short_name(name):
    """A demangled name without its parameter lists, qualifiers and clone
    suffixes."""
    name = name.split(" [clone ")[0]
    out = []
    depth = 0  # inside <...> or {...}
    i = 0
    while i < len(name):
        c = name[i]
        if name.startswith("(anonymous namespace)", i):
            out.append("(anonymous namespace)")
            i += len("(anonymous namespace)")
            continue
        if c in "<{":
            depth += 1
        elif c in ">}" and depth > 0:
            depth -= 1
        elif c == "(" and depth == 0 and not "".join(out).endswith("operator"):
            nest = 0
            while i < len(name):
                nest += {"(": 1, ")": -1}.get(name[i], 0)
                i += 1
                if nest == 0:
                    break
            continue
        out.append(c)
        i += 1
    text = "".join(out).strip()
    for suffix in (" const", " &&", " &"):
        if text.endswith(suffix):
            text = text[: -len(suffix)]
    return text


def symbolize(path, addresses):
    """{address: [function, ...]} innermost inlined frame first."""
    result = {}
    if not addresses or not os.path.exists(path):
        return result
    ordered = sorted(addresses)
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", path],
        input="\n".join(f"{a:x}" for a in ordered) + "\n",
        capture_output=True, text=True, check=False)
    current = None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("0x"):
            current = int(line, 16)
            result[current] = []
            i += 1
            continue
        if current is not None:
            result[current].append(short_name(line))
        i += 2  # a function line, then its file:line
    return result


def load(path):
    maps, samples, header = [], [], ""
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                header = line[1:].strip()
            elif line.startswith("map "):
                _, start, end, offset, obj = line.rstrip("\n").split(" ", 4)
                maps.append((int(start, 16), int(end, 16), int(offset, 16), obj))
            elif line.startswith("s "):
                head, _, stack = line.rstrip("\n").partition("\t")
                _, tid, ns, name = head.split(" ", 3)
                pcs = [int(x, 16) for x in stack.split()]
                samples.append((int(tid), int(ns), name, pcs))
    return header, maps, samples


def frames_of(pcs, where, names):
    """The sample's frames, innermost first: (function, object path)."""
    out = []
    for pc in pcs:
        loc = where.get(pc)
        if loc is None:
            out.append(("??", "?"))
            continue
        obj, addr = loc
        chain = names.get(obj, {}).get(addr) or ["??"]
        for fn in chain:
            out.append((fn, obj))
    return out


def main():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("profile")
    p.add_argument("--thread", action="append", default=[])
    p.add_argument("--from", dest="start", type=float, default=0.0)
    p.add_argument("--expect", action="append", default=[],
                   metavar="NAME:TEXT")
    args = p.parse_args()

    header, maps, samples = load(args.profile)
    if samples:
        first = min(ns for _, ns, _, _ in samples)
        samples = [(tid, name, pcs) for tid, ns, name, pcs in samples
                   if (ns - first) * 1e-9 >= args.start]
    m = Maps(maps)
    where = {}
    wanted = collections.defaultdict(set)
    for _, _, pcs in samples:
        for pc in pcs:
            if pc not in where:
                where[pc] = m.locate(pc)
                if where[pc] is not None:
                    wanted[where[pc][0]].add(where[pc][1])
    names = {obj: symbolize(obj, addrs) for obj, addrs in wanted.items()}
    executables = {obj for obj in wanted if ".so" not in os.path.basename(obj)}

    by_thread = {}
    for tid, name, pcs in samples:
        by_thread.setdefault(name, []).append((tid, pcs))
    total = len(samples)
    window = "" if args.start == 0 else (
        f", from {args.start:g} s after the first")
    print(f"hkprof: {total} samples ({header}{window})")
    on_stack = collections.defaultdict(set)
    for name, group in sorted(by_thread.items(), key=lambda kv: -len(kv[1])):
        self_count = collections.Counter()
        lib_count = collections.Counter()
        incl_count = collections.Counter()
        for _, pcs in group:
            frames = frames_of(pcs, where, names)
            ours = [fn for fn, _ in frames if fn.startswith(PROJECT)]
            if ours:
                self_count[ours[0]] += 1
            elif frames:
                fn, obj = frames[0]
                self_count[f"[{os.path.basename(obj)}] {fn}"] += 1
            else:
                self_count["(no stack)"] += 1
            if frames and frames[0][1] not in executables and frames[0][1] != "?":
                caller = ours[0] if ours else "(no hkws:: caller)"
                lib_count[f"{os.path.basename(frames[0][1])} under {caller}"] += 1
            for fn in dict.fromkeys(ours):
                incl_count[fn] += 1
        on_stack[name] = set(incl_count)
        if args.thread and name not in args.thread:
            continue
        n = len(group)
        tids = len({tid for tid, _ in group})
        print(f"\n== thread {name} ({tids} thread{'s' if tids > 1 else ''}): "
              f"{n} samples, {100.0 * n / total:.1f}% of all ==")
        for title, counter in (("self (library frames charged to the nearest "
                                "hkws:: caller)", self_count),
                               ("libraries (shared-object leaf, by nearest "
                                "hkws:: caller)", lib_count),
                               ("inclusive", incl_count)):
            print(f"  {title}:")
            rows = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
            for fn, c in rows[:ROWS]:
                print(f"    {100.0 * c / n:5.1f}% {c:7d}  {fn}")

    status = 0
    for spec in args.expect:
        thread, _, text = spec.partition(":")
        if thread not in by_thread:
            print(f"expect: no thread named {thread}", file=sys.stderr)
            status = 1
        elif not any(text in fn for fn in on_stack[thread]):
            print(f"expect: no sample of thread {thread} runs {text}",
                  file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
