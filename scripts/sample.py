#!/usr/bin/env python3
"""A frame-pointer sampling profiler that needs nothing but ptrace.

    python3 scripts/sample.py [--interval-ms MS] [--top N] [--root DIR]
                              [--callers REGEX]... -- CMD [ARG...]

Starts CMD, attaches to it with PTRACE_SEIZE (only to that one child, and
only to its main thread), and every --interval-ms (default 0.5)
interrupts it with PTRACE_INTERRUPT, reads its registers, takes `rip` and
walks the `rbp` chain (each frame's saved `rbp` and return address),
then lets it run on. When `rip` lies outside the executable, the direct
caller is recovered from the stack before the walk (see below). When CMD exits, the samples are symbolized against
CMD's executable with `nm -C` (function by address) and
`addr2line -i -f -C` (source line and inline chain) and printed as:

  * self % and inclusive % by function (a function counts once per sample
    in the inclusive column, however often it recurs in the chain);
  * self % by innermost source line, with the chain of functions it is
    inlined into;
  * one row for the samples whose `rip` lies outside the executable
    (shared libraries: libc's `malloc`, `free`, `memcpy` and the like),
    broken down by mapping, then self % by the nearest symbol the library
    exports at or below `rip` (`nm -D`). A library's internal functions
    export no symbol, so their samples land under an exported neighbour's
    name: in glibc, `_int_malloc` and `_int_free` read as
    `__default_morecore`;
  * for each --callers REGEX (repeatable), the samples whose innermost
    function (or library symbol) matches it, grouped by the two frames
    above it: which callers a hot leaf such as `BinaryHeap::pop` or
    `malloc` is charged to, and how many of them reach a frame in the
    executable at all.

CMD's standard output goes to this script's standard error, so the
report is all that reaches standard output. Build CMD with frame pointers
(`-C force-frame-pointers=yes`) and line tables, as `scripts/profile.sh`
does. A library such as glibc keeps no frame pointer, so in a sample
taken there `rbp` names no frame of the library's own: the walk would
skip the library function's direct caller, or stop at the leaf. So when
`rip` lies outside the executable, the stack is scanned upward from
`rsp` for the first word that points into the executable just past a
call instruction (`e8 rel32`, or `ff /2` in any of its encodings); that
word is the direct caller, and the `rbp` walk goes on from `rbp` if it
points above that word. Else the library used `rbp` as a scratch
register, and the walk goes on from the first (saved `rbp`, return
address) pair above that word whose saved `rbp` points above it, inside
the stack window, at a second pair whose return address also follows a
call into the executable. A stale return address left in the library's
frame could still be taken for the caller; that is the heuristic's risk. x86-64
Linux only; the standard library is all it imports.
"""

import argparse
import bisect
import collections
import ctypes
import os
import re
import signal
import struct
import subprocess
import sys
import time

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
WALL = 0x40000000

# Indices into x86-64 `struct user_regs_struct` (27 unsigned longs).
REG_RBP, REG_RIP, REG_RSP = 4, 16, 19

MAX_FRAMES = 256
STACK_WINDOW = 64 * 1024

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


class IoVec(ctypes.Structure):
    _fields_ = [("base", ctypes.c_void_p), ("len", ctypes.c_size_t)]


libc.process_vm_readv.argtypes = [
    ctypes.c_int,
    ctypes.POINTER(IoVec),
    ctypes.c_ulong,
    ctypes.POINTER(IoVec),
    ctypes.c_ulong,
    ctypes.c_ulong,
]
libc.process_vm_readv.restype = ctypes.c_ssize_t


def ptrace(request, pid, addr=0, data=0):
    if libc.ptrace(request, pid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, f"ptrace({request:#x}, {pid}): {os.strerror(err)}")


def ff2_len(modrm, sib):
    """The length of an `ff /2` (indirect call) instruction with this
    ModRM byte (and SIB byte, when it has one), or None if it is no call."""
    if (modrm >> 3) & 7 != 2:
        return None
    mod, rm = modrm >> 6, modrm & 7
    if mod == 3:
        return 2
    n = 3 if rm == 4 else 2
    if mod == 0:
        if rm == 5:
            return 6  # rip-relative disp32
        return n + 4 if rm == 4 and sib is not None and sib & 7 == 5 else n
    return n + (1 if mod == 1 else 4)


def after_call(code):
    """Whether the 7 bytes just before a return address end a call."""
    if len(code) < 7:
        return False
    if code[2] == 0xE8:
        return True
    for n in range(2, 8):
        i = 7 - n
        sib = code[i + 2] if n >= 3 else None
        if code[i] == 0xFF and ff2_len(code[i + 1], sib) == n:
            return True
    return False


class Tracee:
    """The traced child: its registers and memory while it is stopped."""

    def __init__(self, pid):
        self.pid = pid
        self.regs = (ctypes.c_ulong * 27)()
        self.buf = ctypes.create_string_buffer(STACK_WINDOW)
        self.code = ctypes.create_string_buffer(7)

    def registers(self):
        ptrace(PTRACE_GETREGS, self.pid, 0, ctypes.addressof(self.regs))
        return self.regs[REG_RIP], self.regs[REG_RSP], self.regs[REG_RBP]

    def read(self, addr, size, buf=None):
        """Up to `size` bytes at `addr`; fewer where the mapping ends."""
        buf = self.buf if buf is None else buf
        local = IoVec(ctypes.cast(buf, ctypes.c_void_p), size)
        remote = IoVec(addr, size)
        got = libc.process_vm_readv(self.pid, ctypes.byref(local), 1, ctypes.byref(remote), 1, 0)
        return buf.raw[: max(got, 0)]

    def return_slot(self, window, in_exe, start=0):
        """The offset in `window`, from `start` on, of the first word that
        points into the executable just past a call instruction, or None."""
        for off in range(start, len(window) - 7, 8):
            (word,) = struct.unpack_from("<Q", window, off)
            if in_exe(word) and after_call(self.read(word - 7, 7, self.code)):
                return off
        return None

    def frame_above(self, window, rsp, in_exe, start):
        """The address of the first (saved `rbp`, return address) pair in
        `window`, from `start` on, whose return address points just past a
        call into the executable and whose saved `rbp` points above it,
        inside the window, at another pair whose return address does too;
        0 when there is none. A stale return address seldom has a saved
        `rbp` below it that leads to a second frame."""
        end = rsp + len(window)
        ret = self.return_slot(window, in_exe, start)
        while ret is not None:
            rbp = rsp + ret - 8
            (saved,) = struct.unpack_from("<Q", window, ret - 8)
            if rbp < saved and saved + 16 <= end and saved % 8 == 0:
                (outer,) = struct.unpack_from("<Q", window, saved - rsp + 8)
                if in_exe(outer) and after_call(self.read(outer - 7, 7, self.code)):
                    return rbp
            ret = self.return_slot(window, in_exe, ret + 8)
        return 0

    def stack(self, in_exe):
        """`rip` and the return addresses of the `rbp` chain, innermost
        first; `in_exe(addr)` says whether an address is the executable's.
        A `rip` outside it gets its direct caller from the stack first."""
        rip, rsp, rbp = self.registers()
        chain = [rip]
        window = self.read(rsp, STACK_WINDOW)
        end = rsp + len(window)
        floor = rsp
        if not in_exe(rip):
            slot = self.return_slot(window, in_exe)
            if slot is not None:
                chain.append(struct.unpack_from("<Q", window, slot)[0])
                floor = rsp + slot + 8
                if not floor <= rbp < end:
                    # The library used `rbp` as a scratch register: find
                    # the caller's frame above the slot.
                    rbp = self.frame_above(window, rsp, in_exe, slot + 16)
        while len(chain) < MAX_FRAMES and floor <= rbp and rbp + 16 <= end and rbp % 8 == 0:
            saved, ret = struct.unpack_from("<QQ", window, rbp - rsp)
            if ret == 0:
                break
            chain.append(ret)
            if saved <= rbp:
                break
            rbp = saved
        return chain


class Maps:
    """The child's executable mappings, re-read when asked to place an
    address they do not hold."""

    def __init__(self, pid):
        self.pid = pid
        self.starts, self.rows = [], []
        self.reload()

    def reload(self):
        rows = []
        try:
            with open(f"/proc/{self.pid}/maps") as f:
                for line in f:
                    parts = line.split()
                    if len(parts) < 6 or "x" not in parts[1]:
                        continue
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    path = parts[5]
                    path = os.path.realpath(path) if path.startswith("/") else path
                    rows.append((lo, hi, path, int(parts[2], 16)))
        except OSError:
            return
        rows.sort()
        self.rows = rows
        self.starts = [r[0] for r in rows]

    def find(self, addr, retry=False):
        """The mapping's path and `addr` as an offset into its file."""
        i = bisect.bisect_right(self.starts, addr) - 1
        if i >= 0 and addr < self.rows[i][1]:
            lo, _, path, offset = self.rows[i]
            return path, addr - lo + offset
        if retry:
            self.reload()
            return self.find(addr, retry=False)
        return None, None


def load_bias(pid, exe):
    """What to subtract from a runtime address to get the ELF's address."""
    with open(exe, "rb") as f:
        e_type = struct.unpack("<H", f.read(18)[16:18])[0]
    if e_type != 3:  # ET_EXEC: linked at its run address
        return 0
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 6 and os.path.realpath(parts[5]) == exe and int(parts[2], 16) == 0:
                return int(parts[0].split("-")[0], 16)
    raise SystemExit(f"sample: no mapping of {exe} at offset 0")


def sample(cmd, interval):
    """Runs `cmd` to its end.

    Returns the executable, its load bias, one `(rip's library and file
    offset, or None inside the executable; the chain's addresses inside
    it)` pair per sample, and the command's exit code.
    """
    child = subprocess.Popen(cmd, stdout=sys.stderr)
    pid = child.pid
    ptrace(PTRACE_SEIZE, pid)
    exe = os.path.realpath(f"/proc/{pid}/exe")
    tracee, maps = Tracee(pid), Maps(pid)
    # The executable's text, read at the first stop: just after the exec
    # its mappings can still be missing from /proc/PID/maps.
    text = []

    def in_exe(addr):
        return any(lo <= addr < hi for lo, hi in text)

    bias = None
    samples = []
    status = 0
    while True:
        time.sleep(interval)
        try:
            ptrace(PTRACE_INTERRUPT, pid)
        except OSError:
            pass  # already gone; waitpid reports how
        # Wait for the interrupt's stop, passing on any signal met first.
        while True:
            _, status = os.waitpid(pid, WALL)
            if not os.WIFSTOPPED(status):
                break
            sig = os.WSTOPSIG(status)
            if status >> 16 == PTRACE_EVENT_STOP:
                break
            ptrace(PTRACE_CONT, pid, 0, sig if sig != signal.SIGTRAP else 0)
        if not os.WIFSTOPPED(status):
            break
        if bias is None:
            bias = load_bias(pid, exe)
            maps.reload()
            text = [(lo, hi) for lo, hi, path, _ in maps.rows if path == exe]
        chain = tracee.stack(in_exe)
        # A library mapped since the last read shows first in `rip`.
        where = [maps.find(chain[0], retry=True)] + [maps.find(a) for a in chain[1:]]
        inside = [a for a, (path, _) in zip(chain, where) if path == exe]
        leaf = None if where[0][0] == exe else (where[0][0] or "[unknown]", where[0][1])
        samples.append((leaf, inside))
        ptrace(PTRACE_CONT, pid)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        print(f"sample: {' '.join(cmd)} exited with {code}", file=sys.stderr)
    child.returncode = code
    return exe, bias or 0, samples, code


def nm_table(path, dynamic=False):
    """Sorted (addresses, names) of a file's text symbols; with `dynamic`,
    only those it exports (`nm -D`), all a stripped library has left."""
    cmd = ["nm", "-C", "--defined-only"] + (["-D"] if dynamic else []) + [path]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return [], []
    syms = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwWiI":
            syms.append((int(parts[0], 16), parts[2].split("@")[0]))
    syms.sort()
    return [a for a, _ in syms], [n for _, n in syms]


def nearest(table, addr):
    """The name of the last symbol at or below `addr`, or None."""
    starts, names = table
    i = bisect.bisect_right(starts, addr) - 1
    return names[i] if i >= 0 else None


def addr2line(exe, addrs):
    """address -> [(function, file:line), …], innermost first."""
    addrs = sorted(set(addrs))
    proc = subprocess.run(
        ["addr2line", "-e", exe, "-i", "-f", "-C", "-a"],
        input="".join(f"{a:#x}\n" for a in addrs),
        capture_output=True,
        text=True,
        check=True,
    )
    # `-a` echoes each address; a (function, file:line) pair per frame follows.
    table, cur, name = {}, None, None
    for line in proc.stdout.splitlines():
        if line.startswith("0x") and all(c in "0123456789abcdef" for c in line[2:]):
            cur, name = int(line, 16), None
            table[cur] = []
        elif name is None:
            name = line
        else:
            table[cur].append((name, line))
            name = None
    return table


def short_path(loc, root):
    path, _, line = loc.rpartition(":")
    if "/library/" in path:
        path = path.split("/library/", 1)[1]
    elif root and path.startswith(root + "/"):
        path = path[len(root) + 1 :]
    elif path.count("/") > 2:
        path = "/".join(path.split("/")[-3:])
    return f"{path}:{line.split(' ')[0]}"


def short_name(name, width=70):
    return name if len(name) <= width else name[: width - 1] + "…"


def report(exe, bias, samples, top, root, callers):
    total = len(samples)
    if total == 0:
        print("sample: no samples (the command ended before the first interval)")
        return
    table = nm_table(exe)
    libs = {}

    def func(addr):
        return nearest(table, addr) or f"{addr:#x}"

    def lib_symbol(path, offset):
        # A shared library's text is mapped at a virtual address equal to
        # its file offset, so the offset looks up its dynamic symbols.
        if path not in libs:
            libs[path] = nm_table(path, dynamic=True) if path.startswith("/") else ([], [])
        name = nearest(libs[path], offset) or f"{offset:#x}"
        return f"{name} ({os.path.basename(path)})"

    self_fn, incl_fn = collections.Counter(), collections.Counter()
    leaf, outside, outside_sym = collections.Counter(), collections.Counter(), collections.Counter()
    callers = [(pattern, re.compile(pattern), collections.Counter()) for pattern in callers]
    exe_name = os.path.basename(exe)
    for lib, chain in samples:
        # A return address points after its call; step back into the call.
        in_exe = lib is None
        elf = [a - bias - (0 if in_exe and i == 0 else 1) for i, a in enumerate(chain)]
        names = [func(a) for a in elf]
        if in_exe:
            leaf[elf[0]] += 1
            self_fn[names[0]] += 1
        else:
            outside[os.path.basename(lib[0])] += 1
            names.insert(0, lib_symbol(*lib))
            outside_sym[names[0]] += 1
        for f in set(names[1:] if not in_exe else names):
            incl_fn[f] += 1
        for _, regex, hits in callers:
            if names and regex.search(names[0]):
                hits[tuple(names[:3])] += 1

    def pct(n):
        return 100.0 * n / total

    out_n = sum(outside.values())
    print(f"{total} samples: {total - out_n} in {os.path.basename(exe)}, {out_n} outside it")
    print(f"\nself %  incl %  function (top {top} by self)")
    for f, n in self_fn.most_common(top):
        print(f"{pct(n):6.2f}  {pct(incl_fn[f]):6.2f}  {short_name(f)}")
    print(f"\nincl %  self %  function (top {top} by inclusive)")
    for f, n in incl_fn.most_common(top):
        print(f"{pct(n):6.2f}  {pct(self_fn[f]):6.2f}  {short_name(f)}")

    lines = addr2line(exe, leaf)
    by_line, chain_of = collections.Counter(), {}
    for addr, n in leaf.items():
        frames = lines.get(addr) or [(func(addr), "??:0")]
        key = short_path(frames[0][1], root)
        by_line[key] += n
        chain_of.setdefault(key, " ← ".join(short_name(fn, 48) for fn, _ in frames))
    print(f"\nself %  innermost source line  (function ← the functions it is inlined into; top {top})")
    for key, n in by_line.most_common(top):
        print(f"{pct(n):6.2f}  {key}  ({chain_of[key]})")

    parts = ", ".join(f"{m} {pct(n):.2f}" for m, n in outside.most_common())
    print(f"\n{pct(out_n):6.2f}  outside {os.path.basename(exe)}" + (f" ({parts})" if parts else ""))
    if outside_sym:
        print(f"\nself %  nearest exported symbol at or below rip (nm -D; top {top})")
        for name, n in outside_sym.most_common(top):
            print(f"{pct(n):6.2f}  {short_name(name)}")

    for pattern, _, hits in callers:
        n_all = sum(hits.values())
        reach = sum(n for chain, n in hits.items() if len(chain) > 1)
        print(
            f"\nself %  callers of /{pattern}/: {pct(n_all):.2f} % of samples, {pct(reach):.2f} % "
            f"reaching a frame in {exe_name} (leaf ← caller ← its caller)"
        )
        for chain, n in hits.most_common(top):
            print(f"{pct(n):6.2f}  " + " ← ".join(short_name(f, 48) for f in chain))


def main():
    ap = argparse.ArgumentParser(
        description="Sample a command's stack with ptrace and report where its time went."
    )
    ap.add_argument("--interval-ms", type=float, default=0.5, help="sampling interval (0.5)")
    ap.add_argument("--top", type=int, default=25, help="rows per table (25)")
    ap.add_argument("--root", default=os.getcwd(), help="source root that paths are shown under")
    ap.add_argument(
        "--callers",
        action="append",
        default=[],
        metavar="REGEX",
        help="for samples whose innermost function matches, show the two frames above (repeatable)",
    )
    ap.add_argument("cmd", nargs=argparse.REMAINDER, help="-- CMD [ARG...]")
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd or args.interval_ms <= 0 or args.top <= 0:
        ap.print_usage(sys.stderr)
        sys.exit(2)
    for pattern in args.callers:
        try:
            re.compile(pattern)
        except re.error as e:
            ap.error(f"--callers {pattern!r}: {e}")
    exe, bias, samples, code = sample(cmd, args.interval_ms / 1000.0)
    report(exe, bias, samples, args.top, os.path.realpath(args.root), args.callers)
    sys.exit(0 if code == 0 else 1)


if __name__ == "__main__":
    main()
