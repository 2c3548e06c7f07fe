"""Fixed reference job that gauges how fast the host runs right now.

    python3 bench/reference.py [--procs N]

``run.py`` runs it as a subprocess just before each timed bellsim
command and divides the command's wall and CPU time by the reference's.
With ``--procs N`` it also runs N - 1 copies of itself at the same time,
so that the reference for a command that keeps N CPUs busy covers N CPUs
too.
It imports nothing from bellsim, so no change to the program moves it;
it does the kinds of work the program does (interpreter start, numpy
import, vectorized float arithmetic and sorting, a Python loop, float
formatting), so a slow stretch of the shared host stretches both alike.
It prints one checksum line, which ``run.py`` checks.
"""

import subprocess
import sys

# the copies start before the numpy import, so that all of them run side by side
procs = int(sys.argv[2]) if sys.argv[1:2] == ["--procs"] else 1
copies = [subprocess.Popen([sys.executable, __file__], stdout=subprocess.PIPE, text=True)
          for _ in range(procs - 1)]

import numpy as np  # noqa: E402

N = 200_000

rng = np.random.default_rng(20141208)
v = rng.standard_normal((N, 3))
v /= np.sqrt(np.einsum("ij,ij->i", v, v))[:, None]
a = np.sign(v @ np.array([0.0, 0.0, 1.0]))
b = -np.sign(v @ np.array([0.6, 0.0, 0.8]))
order = np.argsort(v[:, 0], kind="stable")
vectorized = int(np.sum(a * b)) + int(order[N // 2])

loop = 0
for k in range(150_000):
    loop = (loop * 31 + k) % 1_000_003

text = "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in v[:15_000].tolist())

result = f"reference {vectorized} {loop} {len(text)}"
for copy in copies:
    if copy.communicate()[0].strip() != result or copy.returncode != 0:
        sys.exit(f"a copy of the reference job failed (exit code {copy.returncode})")
print(result)
