"""Fake solver for the adapter tests: hangs, and starts a grandchild that outlives it.

Usage: fake_solver.py PROBLEM_FILE ORDERING MARKER

Starts a child that inherits this process's stdout and stderr, sleeps for
1.5 s and then creates the file MARKER; then sleeps for 30 s itself.  The
marker exists only if the child survived whatever ended this process.
"""

import subprocess
import sys
import time

GRANDCHILD = "import sys, time; time.sleep(1.5); open(sys.argv[1], 'w').close()"

if __name__ == "__main__":
    subprocess.Popen([sys.executable, "-c", GRANDCHILD, sys.argv[3]])
    time.sleep(30)
