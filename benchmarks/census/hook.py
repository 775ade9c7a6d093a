"""Call recorder the census installs as ``sitecustomize`` in every process.

:mod:`census` writes this file, followed by one ``_install(OUT, ROOT)``
line, into a fresh directory and puts that directory first on
``PYTHONPATH``, so every interpreter a shipped path starts — examples,
pytest, ledger children, spawned pool workers — loads it before its
own code.  It records each code object a profile hook sees called and,
when the process ends, writes ``<path>:<first line>`` for every one
under ``ROOT`` to a file of its own in ``OUT``.

A process can end four ways and each one dumps: a normal exit
(``atexit``), ``os._exit`` (forked or pool children), ``SIGTERM`` (a
pool being shut down) and a fork, which inherits the parent's set but
gets a new pid and so a new file.  A ``SIGKILL``ed process records
nothing; what only it would have reached stays uncounted.
"""

import atexit
import os
import signal
import sys
import threading


def _install(out_dir, root):
    seen = {}

    def profile(frame, event, arg, _seen=seen, _id=id):
        if event == "call":
            code = frame.f_code
            _seen[_id(code)] = code

    real = {}

    def dump():
        lines = set()
        for code in list(seen.values()):
            name = code.co_filename
            path = real.get(name)
            if path is None:
                # Examples put ``benchmarks/../src`` on sys.path: only
                # the resolved path says the file is under ROOT.
                path = real[name] = os.path.realpath(name)
            if path.startswith(root):
                lines.add(f"{path[len(root):]}:{code.co_firstlineno}")
        if lines:
            target = os.path.join(out_dir, f"calls-{os.getpid()}-"
                                           f"{threading.get_ident()}.txt")
            with open(target, "a", encoding="utf-8") as fh:
                fh.write("\n".join(sorted(lines)) + "\n")

    real_exit = os._exit

    def exit_(code):
        dump()
        real_exit(code)

    def on_term(signum, frame):
        dump()
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)

    os._exit = exit_
    atexit.register(dump)
    if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL:
        signal.signal(signal.SIGTERM, on_term)
    sys.setprofile(profile)
    threading.setprofile(profile)
