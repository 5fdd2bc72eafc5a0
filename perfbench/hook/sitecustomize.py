"""Interpreter-start hook for the benchmark's traced run.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one.  The traced run puts this directory on the
``PYTHONPATH`` of the service and cluster processes it starts (workers
inherit it from the router), together with ``PERFBENCH_SPAN_DIR``; the
untraced run does neither, so this file is never loaded there.
"""

import os
import sys

if os.environ.get("PERFBENCH_SPAN_DIR"):
    sys.path.append(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
    from perfbench.tracing import install_in_child

    install_in_child()
