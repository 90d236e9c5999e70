#!/usr/bin/env python3
"""Function reach map of ``src/repro``: what the product and tier-1 reach.

Usage, from the root of a checkout (no flags; takes tens of minutes)::

    python3 tools/reach.py

Every Python process it starts records, through a ``sys.setprofile`` hook
installed by a ``sitecustomize`` on ``PYTHONPATH``, the ``src/repro``
functions it entered.  Subprocesses and pool workers inherit the hook.  Each
process dumps what it saw on normal exit, on ``os._exit`` (forked pool
workers leave that way) and on ``SIGTERM`` (``Pool.terminate`` ends its
workers with it), into ``.reach_work/``.

Two fixed passes run:

* **product** -- what users run: every experiment preset serially at the
  default scale and at smoke scale, each CLI verb and the flags that pick a
  different code path (executor tiers, a spool, shard balancing, trace
  import formats, a live serve daemon with watch and cancel, sweeps,
  scenarios with rate-limited tenants and a ``scenario:`` workload, a trace
  build of every registry workload), the examples, ``pytest benchmarks``
  and a traced ``perfbench`` pass;
* **tier-1** -- ``pytest tests``.

Then every function defined in ``src/repro`` (by ``ast``, nested functions
included; abstract methods and protocol signatures, whose bodies never run,
left out) that the product pass did not reach is printed with its module,
name and line count, split into "only tier-1 reaches" and "nothing
reaches", unless DESIGN.md's "Kept on purpose" section names it.  Names in
that section that match no function are printed too.  The exit status is 1
when any of those lists is non-empty.  A step still running after
``STEP_TIMEOUT_S`` is killed with its process group.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
DESIGN = ROOT / "DESIGN.md"
#: Hook, per-process dumps and every command's outputs; removed at start.
WORK = ROOT / ".reach_work"
KEEP_HEADING = "## Kept on purpose"
#: A step still running after this long is killed (its reach is lost): now
#: and then a pool worker under the hook stays blocked on a futex after
#: ``Pool.terminate`` sent it SIGTERM.
STEP_TIMEOUT_S = 600

#: Installed as ``sitecustomize`` for every process of a pass.
HOOK = textwrap.dedent('''\
    import os

    _OUT = os.environ.get("REACH_OUT")
    if _OUT:
        import signal
        import sys
        import threading

        _PREFIX = os.environ["REACH_PACKAGE"] + os.sep
        _SEEN = set()
        _ADD = _SEEN.add
        _DUMPS = [0]

        def _profile(frame, event, arg):
            if event == "call":
                _ADD(frame.f_code)

        def _dump():
            lines = sorted({f"{code.co_filename}:{code.co_firstlineno}"
                            for code in list(_SEEN)
                            if code.co_filename.startswith(_PREFIX)})
            _DUMPS[0] += 1
            path = os.path.join(_OUT, f"{os.getpid()}-{_DUMPS[0]}.txt")
            try:
                with open(path + ".tmp", "w") as handle:
                    handle.write("\\n".join(lines))
                os.replace(path + ".tmp", path)
            except OSError:
                pass

        _real_exit = os._exit

        def _exit(status):
            _dump()
            _real_exit(status)

        os._exit = _exit

        def _on_term(signum, frame):
            _dump()
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)

        _real_signal = signal.signal

        def _signal(signum, handler):
            # Dump before a program's own SIGTERM handler runs.
            if signum == signal.SIGTERM and callable(handler):
                inner = handler

                def handler(number, frame):
                    _dump()
                    return inner(number, frame)
            return _real_signal(signum, handler)

        signal.signal = _signal
        _real_signal(signal.SIGTERM, _on_term)
        import atexit
        atexit.register(_dump)
        threading.setprofile(_profile)
        sys.setprofile(_profile)
''')


def python(*argv: str) -> List[str]:
    return [sys.executable, *argv]


def repro(*argv: str) -> List[str]:
    return python("-m", "repro", *argv)


def product_steps(run: Path) -> List[object]:
    """The product pass: a list of argv lists and callables, in order."""
    presets = ["fig16", "fig17", "fig18", "fig19", "mmf", "bypass",
               "sqlite", "smoke"]
    workloads = ["seqRd", "rndRd", "seqWr", "rndWr", "seqSel", "rndSel",
                 "seqIns", "rndIns", "update", "BFS", "KMN", "NN"]
    traces = run / "traces"
    baseline = str(ROOT / "benchmarks/baselines/BASELINE_smoke.json")
    grid = [str(4096 * i) for i in range(1, 9)]
    tiny = ["--capacity-scale", "0.001953125", "--min-accesses", "120",
            "--max-accesses", "240"]
    tenants = ["--tenant", "seqRd", "--tenant", "rndRd", "--tenant",
               "update@2"]
    scenario = json.dumps({
        "name": "mix", "arrival": "rate", "policy": "priority",
        "tenants": [{"workload": "seqRd", "rate": 1.0, "priority": 1},
                    {"workload": "update", "rate": 0.5}]})
    steps: List[object] = [
        repro("list"),
        repro("run", *presets, "--executor", "serial", "--no-cache",
              "--output-dir", str(run / "default"), "--quiet"),
        repro("run", "--smoke", *presets, "--workers", "2", "--progress",
              "--output-dir", str(run / "smoke"), "--quiet"),
        repro("run", "--smoke", *presets, "--workers", "2",
              "--output-dir", str(run / "smoke")),
        repro("report", "--output-dir", str(run / "smoke")),
        repro("report", "--diff", baseline, str(run / "smoke/smoke.json"),
              "--threshold", "0"),
        repro("run", "--smoke", "smoke", "--no-cache", "--executor",
              "sharded", "--workers", "2", "--output-dir",
              str(run / "sharded"), "--quiet"),
        repro("run", "--smoke", "smoke", "--no-cache", "--executor",
              "sharded", "--shards", "3", "--spool", str(run / "spool-run"),
              "--workers", "2", "--output-dir", str(run / "sharded-spool"),
              "--quiet", "--progress"),
        repro("run", "--smoke", "smoke", "--executor", "pool", "--spool",
              str(run / "spool-rejected"), "--output-dir",
              str(run / "rejected"), "--quiet"),
        repro("run", "--smoke", "--platforms", "nosuch", "--workloads",
              "seqRd", "--output-dir", str(run / "rejected")),
        repro("report", "--output-dir", str(run / "empty")),
    ]
    for balance in ("count", "cost"):
        spool = str(run / f"spool-{balance}")
        steps += [
            repro("shard", "plan", "smoke", "--smoke", "--shards", "2",
                  "--balance", balance, "--spool", spool),
            repro("shard", "work", "--spool", spool, "--max-shards", "1",
                  "--host", "a"),
            repro("shard", "status", "--spool", spool),
            repro("shard", "work", "--spool", spool, "--host", "b"),
            repro("shard", "merge", "--spool", spool),
            repro("shard", "status", "--spool", spool, "--watch",
                  "--interval", "0.2"),
            repro("list", "--artifacts", spool),
        ]
    steps += [
        lambda: run_step(repro("shard", "merge", "--experiment", "smoke",
                               "--output", str(run / "merged.json"),
                               *map(str, sorted((run / "spool-cost").glob(
                                   "results/*.json"))))),
        repro("shard", "plan", "smoke", "--smoke", "--shards", "2",
              "--spool", str(run / "spool-manual")),
        lambda: run_step(repro("shard", "work", "--spool",
                               str(run / "spool-manual"),
                               *[str(path) for path in sorted(
                                   (run / "spool-manual").glob(
                                       "pending/*.json"))[:1]])),
        lambda: failing_shard(run / "spool-failing", traces),
        lambda: helper_and_coordinator(run / "spool-helper"),
    ]
    steps.append(lambda: hostile_spool(run / "spool-hostile"))
    steps += [repro("shard", "status", "--spool", str(run / "spool-hostile")),
              repro("shard", "work", "--spool", str(run / "spool-hostile"))]
    for workload in workloads:
        steps.append(repro("trace", "build", "--workload", workload,
                           str(traces / f"{workload}.trace"), "--smoke"))
    steps += [
        repro("trace", "build", "--workload", "BFS",
              str(traces / "BFS-zlib.trace"), "--smoke", "--compression",
              "zlib"),
        repro("trace", "build", "--workload", "update",
              str(traces / "update-70k.trace"), "--accesses", "70000"),
        repro("trace", "info", *(str(traces / f"{w}.trace")
                                 for w in ("seqRd", "BFS-zlib"))),
        repro("trace", "verify", str(traces / "seqRd.trace"),
              str(traces / "BFS-zlib.trace")),
        lambda: foreign_logs(traces),
        repro("trace", "import", "--format", "csv",
              str(traces / "log.csv"), str(traces / "csv.trace")),
        repro("trace", "import", "--format", "addr64", "--default-size",
              "64", str(traces / "log.addr64"), str(traces / "addr64.trace"),
              "--compression", "zlib"),
        repro("trace", "import", "--format", "records",
              str(traces / "log.records"), str(traces / "records.trace")),
        repro("trace", "import", "--format", "csv",
              str(traces / "bad.csv"), str(traces / "bad.trace")),
        repro("trace", "info", str(run / "missing.trace")),
        repro("run", "--smoke", "--no-cache", "--platforms", "mmap",
              "hams-LE", "hams-TE", "oracle", "--workloads",
              *(f"trace:{traces / name}.trace"
                for name in ("seqRd", "update", "BFS-zlib", "addr64")),
              "--output-dir", str(run / "trace-run"), "--quiet"),
    ]
    for platform in ("hams-TE", "hams-LE"):
        common = ["--platform", platform, "--workloads", "rndRd",
                  "--section", "hams", "--field", "mos_page_bytes",
                  "--values", *grid, *tiny, "--workers", "2",
                  "--output-dir", str(run / "sweep"), "--quiet"]
        steps += [
            repro("sweep", *common, "--name", f"grid-{platform}"),
            repro("sweep", *common, "--adaptive", "--tolerance", "0.01",
                  "--seed-points", "5", "--budget", "100000",
                  "--name", f"adaptive-{platform}"),
            repro("sweep", *common[:-1], "--adaptive", "--tolerance",
                  "0.01", "--name", f"resumed-{platform}"),
        ]
    steps += [
        repro("sweep", "--platform", "flatflash-P", "--workloads", "update",
              "--section", "ssd", "--field", "dram_buffer_enabled",
              "--values", "False", "True", "--smoke", "--workers", "2",
              "--output-dir", str(run / "sweep-bool"), "--quiet"),
        repro("sweep", "--platform", "hams-TE", "--workloads", "rndRd",
              "--section", "hams", "--field", "no_such", "--values", "1",
              "2", "--smoke", "--output-dir", str(run / "sweep-bad")),
        repro("sweep", "--platform", "mmap", "--workloads", "update",
              "--section", "cpu", "--field", "base_cpi", "--values=-1",
              "--smoke", "--output-dir", str(run / "sweep-bad")),
        repro("scenario", "plan", "--smoke", *tenants),
    ]
    for platform in ("mmap", "nvdimm-C", "hams-TE"):
        steps.append(repro("scenario", "run", "--smoke", "--platform",
                           platform, *tenants))
    steps += [
        *(repro("scenario", "run", "--smoke", "--platform", platform,
                "--policy", "cache-partition", *tenants)
          for platform in ("nvdimm-C", "optane-M", "bypass-ull-buff")),
        repro("scenario", "run", "--smoke", "--platform", "nvdimm-C",
              "--arrival", "rate", "--rates", "1,1,0.5", "--policy",
              "throttle", "--policy-params",
              '{"limits": {"seqRd": 0.25}}', "--tenant", "seqRd",
              "--tenant", "rndRd", "--tenant", "update"),
        repro("scenario", "report", "--smoke", "--platform", "nvdimm-C",
              *tenants),
        repro("scenario", "run", "--smoke", "--platform", "hams-TE",
              "--tenant", f"trace:{traces / 'seqRd.trace'}", "--tenant",
              f"trace:{traces / 'update.trace'}", "--tenant", "rndRd"),
        repro("run", "--smoke", "--no-cache", "--platforms", "mmap",
              "hams-TE", "flatflash-M", "--workloads",
              f"scenario:{scenario}", "--output-dir", str(run / "scenario"),
              "--quiet"),
        repro("run", "--smoke", "--platforms", "nvdimm-C", "--workloads",
              f"scenario:{scenario}", "--output-dir",
              str(run / "scenario-cached"), "--quiet"),
        lambda: serve(run / "serve"),
    ]
    for example in sorted((ROOT / "examples").glob("*.py")):
        steps.append(python(str(example)))
    steps.append(python("-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "benchmarks", "--benchmark-disable"))
    for workload in ("fig16-cold", "replay-fine", "replay-page"):
        steps.append(python("perfbench/run.py", "--workload", workload,
                            "--seed", "42", "--seconds", "1", "--trace",
                            "1"))
    return steps


def hostile_spool(spool: Path) -> None:
    claims = spool / "claims"
    claims.mkdir(parents=True, exist_ok=True)
    (claims / "shard-deadbeef-0000.json").write_text("[]")
    (claims / "shard-deadbeef-0001.json").write_text('{"claim": "x"}')


def foreign_logs(traces: Path) -> None:
    """Write one small access log in each importable format."""
    import struct
    rows = [(4096 * (i % 97), i % 3 == 0, 64 * (1 + i % 64))
            for i in range(3000)]
    (traces / "log.csv").write_text(
        "address,size,write\n"
        + "".join(f"{a},{s},{int(w)}\n" for a, w, s in rows))
    (traces / "log.addr64").write_bytes(
        b"".join(struct.pack("<Q", a) for a, _, _ in rows))
    (traces / "bad.csv").write_text("0,64,0\n64,64,maybe\n")
    (traces / "log.records").write_bytes(
        b"".join(struct.pack("<QQB", a, s, w) for a, w, s in rows))


def start_daemon(state: Path, log, *scale: str) -> subprocess.Popen:
    daemon = subprocess.Popen(
        repro("serve", "start", "--state", str(state), "--fleet", "2",
              *(scale or ("--smoke",))), cwd=ROOT, stdout=log,
        stderr=subprocess.STDOUT)
    for _ in range(300):
        if (state / "server.json").exists() or daemon.poll() is not None:
            break
        time.sleep(0.2)
    return daemon


def submit(state: Path, *argv: str) -> str:
    """``repro serve submit`` without waiting; returns the job id."""
    done = subprocess.run(repro("serve", "submit", "--state", str(state),
                                *argv), cwd=ROOT, capture_output=True,
                          text=True)
    job = re.search(r"\bj\d+\b", done.stdout + done.stderr)
    return job.group(0) if job else "j999999"


def serve(state: Path) -> None:
    """A live daemon: waits, dedup, watch, errors, the serve: executor,
    cancel, a kill -9 and restart, and a SIGTERM drain."""
    log = open(state.parent / "serve.log", "w")
    daemon = start_daemon(state, log)
    try:
        run_step(repro("serve", "submit", "--smoke", "--state", str(state),
                       "--wait", "--output", str(state.parent / "out.json")))
        run_step(repro("serve", "status", "--state", str(state)))
        run_step(python("-c", textwrap.dedent(f"""\
            import time
            from pathlib import Path
            from repro.runner.specs import matrix_specs
            from repro.serve.client import ServeClient
            from repro.workloads.registry import all_workload_names
            client = ServeClient.from_state_dir(Path({str(state)!r}))
            running = client.submit(matrix_specs(
                ["mmap", "hams-TE", "nvdimm-C"], all_workload_names()))
            pending = client.submit(matrix_specs(["oracle"], ["KMN"]))
            client.cancel(pending["id"])
            while client.job(running["id"])["state"] == "pending":
                time.sleep(0.01)
            client.cancel(running["id"])
            for job in (running, pending):
                client.wait(job["id"], timeout=120)
            print(len(client.jobs()), "jobs")
            """)))
        first = submit(state, "fig16", "--smoke", "--tenant", "alice")
        submit(state, "fig16", "--smoke", "--tenant", "bob", "--priority",
               "1")
        run_step(repro("serve", "watch", "--state", str(state), first))
        run_step(repro("serve", "watch", "--state", str(state), "j999999"))
        url = json.loads((state / "server.json").read_text())["url"]
        run_step(repro("run", "--smoke", "smoke", "sqlite", "--executor",
                       f"serve:{url}", "--output-dir",
                       str(state.parent / "via-serve"), "--quiet"))
        run_step(repro("serve", "shutdown", "--state", str(state)))
        daemon.wait(timeout=120)
        # A daemon killed mid-job (its own reach is lost with it); the
        # restarted one requeues the job, then drains on SIGTERM.  A longer
        # trace keeps each job running long enough to be interrupted.
        longer = ("--smoke", "--min-accesses", "4000", "--max-accesses",
                  "4000")
        daemon = start_daemon(state, log, *longer)
        job = submit(state, "mmf", "--smoke", "--tenant", "carol")
        for _ in range(600):
            if (state / "queue" / "running" / f"{job}.json").exists():
                break
            time.sleep(0.01)
        daemon.kill()
        daemon.wait(timeout=60)
        (state / "server.json").unlink(missing_ok=True)
        daemon = start_daemon(state, log, *longer)
        run_step(repro("serve", "status", "--state", str(state), "--watch",
                       "--until-idle", "--interval", "0.5"))
        job = submit(state, "bypass", "--smoke", "--tenant", "dave")
        for _ in range(600):
            if (state / "queue" / "running" / f"{job}.json").exists():
                break
            time.sleep(0.01)
        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=120)
        daemon = start_daemon(state, log, *longer)
        run_step(repro("serve", "status", "--state", str(state), "--watch",
                       "--until-idle", "--interval", "0.5"))
        run_step(repro("serve", "shutdown", "--state", str(state)))
        daemon.wait(timeout=120)
    finally:
        if daemon.poll() is None:
            daemon.terminate()
            daemon.wait(timeout=60)
        log.close()


def failing_shard(spool: Path, traces: Path) -> None:
    """A shard whose trace file vanished fails and goes back to pending."""
    source = traces / "vanishing.trace"
    run_step(repro("trace", "build", "--workload", "seqRd", str(source),
                   "--smoke"))
    run_step(repro("shard", "plan", "--smoke", "--shards", "1", "--spool",
                   str(spool), "--platforms", "mmap", "--workloads",
                   f"trace:{source}"))
    source.unlink()
    run_step(repro("shard", "work", "--spool", str(spool)))


def helper_and_coordinator(spool: Path) -> None:
    """A sharded run that must wait for a shard another host holds."""
    run_step(repro("shard", "plan", "smoke", "--smoke", "--shards", "2",
                   "--spool", str(spool)))
    helper = subprocess.Popen(
        repro("shard", "work", "--spool", str(spool), "--max-shards", "1",
              "--host", "helper", "--workers", "1"), cwd=ROOT,
        stdout=subprocess.DEVNULL)
    for _ in range(600):
        if list(spool.glob("claims/*.json")) or helper.poll() is not None:
            break
        time.sleep(0.01)
    helper.send_signal(signal.SIGSTOP)
    coordinator = subprocess.Popen(
        repro("run", "--smoke", "smoke", "--no-cache", "--executor",
              "sharded", "--shards", "2", "--spool", str(spool),
              "--workers", "1", "--output-dir", str(spool.parent / "helped"),
              "--quiet"), cwd=ROOT, stdout=subprocess.DEVNULL)
    time.sleep(3.0)
    helper.send_signal(signal.SIGCONT)
    helper.wait(timeout=600)
    coordinator.wait(timeout=600)


def run_step(step: object) -> None:
    if callable(step):
        step()
        return
    started = time.monotonic()
    process = subprocess.Popen(step, cwd=ROOT, stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        _, stderr = process.communicate(timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        _, stderr = process.communicate()
        stderr += f"killed after {STEP_TIMEOUT_S} s"
    label = " ".join(str(part) for part in step[1:]).replace("\n", " ")[:100]
    print(f"  [{process.returncode}] {time.monotonic() - started:6.1f}s "
          f"{label}", file=sys.stderr, flush=True)
    if "Traceback" in stderr or process.returncode < 0:
        print(textwrap.indent(stderr[-2000:], "    "), file=sys.stderr)


def record(name: str, steps: Iterable[object]) -> Set[Tuple[str, int]]:
    """Run one pass under the hook; return the (file, line)s it reached."""
    out = WORK / "data" / name
    out.mkdir(parents=True)
    os.environ.update(
        REACH_OUT=str(out), REACH_PACKAGE=str(PACKAGE),
        PYTHONPATH=os.pathsep.join([str(WORK / "site"), str(SRC)]))
    print(f"{name} pass", file=sys.stderr, flush=True)
    try:
        for step in steps:
            run_step(step)
    finally:
        del os.environ["REACH_OUT"]
    reached: Set[Tuple[str, int]] = set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text().splitlines():
            path, _, lineno = line.rpartition(":")
            reached.add((path, int(lineno)))
    return reached


def is_interface(node: ast.FunctionDef) -> bool:
    """An abstract method or protocol signature: its body never runs."""
    if any(getattr(decorator, "attr", getattr(decorator, "id", None))
           == "abstractmethod" for decorator in node.decorator_list):
        return True
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if len(body) != 1:
        return False
    statement = body[0]
    if isinstance(statement, ast.Expr):
        return statement.value.value is Ellipsis if isinstance(
            statement.value, ast.Constant) else False
    if isinstance(statement, ast.Raise) and statement.exc is not None:
        target = statement.exc
        if isinstance(target, ast.Call):
            target = target.func
        return getattr(target, "id", None) == "NotImplementedError"
    return False


def functions() -> Dict[Tuple[str, int], Tuple[str, str, int]]:
    """(file, first line) -> (module, qualified name, lines) for src/repro."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        tree = ast.parse(path.read_text(), str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    if is_interface(child):
                        continue
                    first = min([child.lineno] + [decorator.lineno for
                                                  decorator in
                                                  child.decorator_list])
                    found[(str(path), first)] = (
                        module, name, child.end_lineno - child.lineno + 1)
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)
        visit(tree, "")
    return found


def keep_list() -> List[str]:
    """The ``module:name`` patterns of DESIGN.md's "Kept on purpose"."""
    text = DESIGN.read_text()
    start = text.find(KEEP_HEADING)
    if start < 0:
        return []
    end = text.find("\n## ", start + len(KEEP_HEADING))
    section = text[start:end if end >= 0 else len(text)]
    return re.findall(r"`([\w.*]+:[\w.*]+)`", section)


def report(product: Set[Tuple[str, int]], tier1: Set[Tuple[str, int]]) -> int:
    table = functions()
    patterns = keep_list()
    names = {key: f"{module}:{name}" for key, (module, name, _)
             in table.items()}
    used = {pattern: False for pattern in patterns}

    def kept(key: Tuple[str, int]) -> bool:
        hit = [p for p in patterns if fnmatch.fnmatchcase(names[key], p)]
        return bool(hit)

    for pattern in patterns:
        used[pattern] = any(fnmatch.fnmatchcase(name, pattern)
                            for name in names.values())
    reached = {key for key in table if key in product}
    only_tests = sorted(key for key in table
                        if key not in product and key in tier1)
    nothing = sorted(key for key in table
                     if key not in product and key not in tier1)
    lines = sum(entry[2] for entry in table.values())
    print(f"src/repro: {len(table)} functions, {lines} lines; product pass "
          f"reaches {len(reached)}, only tier-1 {len(only_tests)} "
          f"({sum(table[k][2] for k in only_tests)} lines), nothing "
          f"{len(nothing)} ({sum(table[k][2] for k in nothing)} lines)")
    failed = 0
    for title, keys in (("only tier-1 reaches", only_tests),
                        ("nothing reaches", nothing)):
        listed = [key for key in keys if not kept(key)]
        print(f"\n{title}, not on the keep list: {len(listed)} "
              f"(kept on purpose: {len(keys) - len(listed)})")
        for key in listed:
            module, name, count = table[key]
            print(f"  {module:28s} {name:52s} {count:4d}")
        failed |= bool(listed)
    stale = [pattern for pattern, hit in used.items() if not hit]
    print(f"\nkeep-list names that match no function: {len(stale)}")
    for pattern in stale:
        print(f"  {pattern}")
    return 1 if failed or stale else 0


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "site").mkdir(parents=True)
    (WORK / "site" / "sitecustomize.py").write_text(HOOK)
    run = WORK / "run"
    (run / "traces").mkdir(parents=True)
    (run / "empty").mkdir()
    environ = dict(os.environ)
    try:
        product = record("product", product_steps(run))
        tier1 = record("tier1", [python("-m", "pytest", "-q", "-p",
                                         "no:cacheprovider", "tests")])
    finally:
        os.environ.clear()
        os.environ.update(environ)
    return report(product, tier1)


if __name__ == "__main__":
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.exit(main())
