"""Independent brute-force oracles used to pin the fast implementations.

Everything here is deliberately naive: dense Kronecker-product unitaries,
explicit python loops over samples/bins/pairs, plain finite differences, and
a spike-file reader that parses decoded text one character at a time.
None of it shares code with the package.
"""

import math
import os

import numpy as np

I2 = np.eye(2, dtype=complex)


def rotation_matrix(kind, angle):
    half = angle / 2.0
    c, s = np.cos(half), np.sin(half)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RY":
        return np.array([[c, -s], [s, c]])
    if kind == "RZ":
        return np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]])
    raise ValueError(kind)


def single_qubit_unitary(num_qubits, target, u2):
    """Embed a 2x2 gate on the given qubit; qubit 0 is the LSB of the index."""
    full = np.kron(np.eye(2 ** (num_qubits - 1 - target), dtype=complex),
                   np.kron(u2, np.eye(2 ** target, dtype=complex)))
    return full


def cnot_unitary(num_qubits, control, target):
    dim = 2 ** num_qubits
    full = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = i ^ (1 << target) if (i >> control) & 1 else i
        full[j, i] = 1.0
    return full


def dense_readout(gates):
    """Basis-state probabilities after applying dense gates to |0...0>.

    ``gates`` may be any iterable, so a wide circuit's gates need not all be
    held at once.
    """
    state = None
    for gate in gates:
        if state is None:
            state = np.eye(gate.shape[0], dtype=complex)[:, 0]
        state = gate @ state
    return np.abs(state) ** 2


def ansatz_gates(theta, z):
    """Dense gates of one patch in circuit order, one at a time.

    ``theta`` is (L, q, 2) with axis 0 = RY, 1 = RZ; ``z`` is (q,).
    Per layer: RX(z) on every qubit, RY then RZ on every qubit, then
    CNOT(k, k+1) for k = 0 .. q-2.  So the gate of angle ``theta[l, k, a]``
    sits at index ``l * (4q - 1) + q + 2k + a``.
    """
    theta = np.asarray(theta, dtype=float)
    n_layers, q, _ = theta.shape
    for layer in range(n_layers):
        for k in range(q):
            yield single_qubit_unitary(q, k, rotation_matrix("RX", z[k]))
        for k in range(q):
            yield single_qubit_unitary(
                q, k, rotation_matrix("RY", theta[layer, k, 0]))
            yield single_qubit_unitary(
                q, k, rotation_matrix("RZ", theta[layer, k, 1]))
        for k in range(q - 1):
            yield cnot_unitary(q, k, k + 1)


def ansatz_probs(theta, z):
    """Readout distribution of one patch through its dense gates."""
    return dense_readout(ansatz_gates(theta, z))


def marginals_of(probs, n_feature):
    """P(qubit k reads 1) for k < n_feature, by summing over basis states."""
    out = np.zeros(n_feature)
    for basis, p in enumerate(probs):
        for k in range(n_feature):
            if (basis >> k) & 1:
                out[k] += p
    return out


def ansatz_marginals(theta, z, n_feature):
    return marginals_of(ansatz_probs(theta, z), n_feature)


def oracle_forward(theta, noise, n_feature):
    """One sample's patch-major marginals: patch p fills p*n .. p*n + n-1."""
    return np.concatenate([ansatz_marginals(theta[p], noise[p], n_feature)
                           for p in range(len(theta))])


def param_shift_oracle(theta, z, upstream, angles=None):
    """Sum over samples of d(marginals . upstream)/d theta, theta-shaped.

    ``theta`` is (t, L, q, 2), ``z`` the noise (B, t, q)
    and ``upstream`` (B, n*t), patch-major.  Each angle's RY or RZ gate is
    rebuilt at the angle +-pi/2 in the patch's dense gate list, and the
    exact derivative of each marginal is half the difference of the two
    readouts.  ``angles`` lists the (patch, layer, qubit, axis) entries to
    compute; the others stay 0.  Their readouts rebuild the gates one at a
    time, so a wide patch's dense gates are never all held at once.  By
    default every entry is computed from one gate list per patch.
    """
    theta = np.asarray(theta, dtype=float)
    n_patches, _, q, _ = theta.shape
    n_feature = upstream.shape[1] // n_patches
    todo = list(np.ndindex(theta.shape) if angles is None else angles)
    grad = np.zeros_like(theta)
    for j in range(len(z)):
        for p in range(n_patches):
            gates = (list(ansatz_gates(theta[p], z[j, p])) if angles is None
                     else None)
            weights = upstream[j, p * n_feature:(p + 1) * n_feature]
            for layer, k, axis in (a[1:] for a in todo if a[0] == p):
                at = layer * (4 * q - 1) + q + 2 * k + axis
                reads = []
                for shift in (np.pi / 2, -np.pi / 2):
                    shifted = single_qubit_unitary(q, k, rotation_matrix(
                        ("RY", "RZ")[axis], theta[p, layer, k, axis] + shift))
                    source = (gates if gates is not None
                              else ansatz_gates(theta[p], z[j, p]))
                    reads.append(marginals_of(dense_readout(
                        shifted if i == at else gate
                        for i, gate in enumerate(source)), n_feature))
                grad[p, layer, k, axis] += 0.5 * np.dot(reads[0] - reads[1],
                                                        weights)
    return grad


def pair_sums_through_chain(bra, psi, frame):
    """Each qubit's pair sums (q, 2, 2) of row vectors ``bra`` and ``psi``
    (2^q, S) given after a layer's CNOT chain, by explicit loops.

    The chain, CNOT(k, k+1) for k = 0 .. q-2, or with ``frame`` CNOT(k+1,
    k), is undone by its dense CNOT matrices in reverse order.  Entry (a, b)
    of qubit k is then the sum over samples and every basis state i whose
    bit k is a of bra[i] psi[i with bit k set to b].
    """
    dim, samples = bra.shape
    q = dim.bit_length() - 1
    undo = np.eye(dim, dtype=complex)
    for k in range(q - 1):
        control, target = (k + 1, k) if frame else (k, k + 1)
        undo = undo @ cnot_unitary(q, control, target)
    bra, psi = undo @ bra, undo @ psi
    sums = np.zeros((q, 2, 2), dtype=complex)
    for k in range(q):
        for i in range(dim):
            a = (i >> k) & 1
            for b in range(2):
                partner = i ^ ((a ^ b) << k)
                for s in range(samples):
                    sums[k, a, b] += bra[i, s] * psi[partner, s]
    return sums


def central_difference(f, x, h=1e-5):
    """Gradient of scalar f at flat array x by central differences."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xflat = x.reshape(-1)
    for i in range(xflat.size):
        bumped = x.copy().reshape(-1)
        bumped[i] = xflat[i] + h
        up = f(bumped.reshape(x.shape))
        bumped[i] = xflat[i] - h
        down = f(bumped.reshape(x.shape))
        flat[i] = (up - down) / (2 * h)
    return grad


# --- naive critic and window layout ------------------------------------------

def critic_forward(p, x):
    """One input's critic score w2 . relu(w1 x + b1) + b2, unit by unit."""
    x = np.asarray(x, dtype=float)
    hidden = [max(float(np.dot(w, x) + b), 0.0) for w, b in zip(p.w1, p.b1)]
    return float(np.dot(p.w2, hidden) + p.b2)


def flatten_windows(windows):
    """(B, n, t) windows -> (B, n*t) rows, patch-major: entry p*n + k is
    neuron k at timestep p."""
    b, n, t = np.shape(windows)
    out = np.zeros((b, n * t))
    for j in range(b):
        for p in range(t):
            for k in range(n):
                out[j, p * n + k] = windows[j][k][p]
    return out


def state_index(window):
    """State number of one n x t binary window: bits are read timestep by
    timestep, neuron 0 of timestep 0 the most significant."""
    window = np.asarray(window)
    value = 0
    for p in range(window.shape[1]):
        for k in range(window.shape[0]):
            value = (value << 1) | int(window[k, p])
    return value


# --- naive spike statistics -------------------------------------------------

def brute_firing_rate(samples, bin_width):
    samples = [np.asarray(s) for s in samples]
    n = samples[0].shape[0]
    rates = []
    for i in range(n):
        total = 0
        bins = 0
        for s in samples:
            for t in range(s.shape[1]):
                total += int(s[i, t])
                bins += 1
        rates.append(total / (bins * bin_width))
    return np.array(rates)


def brute_pairwise_cov(samples):
    samples = [np.asarray(s, dtype=float) for s in samples]
    n = samples[0].shape[0]
    pooled = [[] for _ in range(n)]
    for s in samples:
        for i in range(n):
            pooled[i].extend(s[i])
    pooled = [np.array(p) for p in pooled]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            eij = float(np.mean(pooled[i] * pooled[j]))
            out.append(eij - pooled[i].mean() * pooled[j].mean())
    return np.array(out)


def brute_k_probability(samples):
    samples = [np.asarray(s) for s in samples]
    n = samples[0].shape[0]
    counts = np.zeros(n + 1)
    total = 0
    for s in samples:
        for t in range(s.shape[1]):
            k = int(s[:, t].sum())
            counts[k] += 1
            total += 1
    return counts / total


def brute_autocorrelogram(samples, max_lag):
    samples = [np.asarray(s, dtype=float) for s in samples]
    n = samples[0].shape[0]
    mu = np.zeros(n)
    var = np.zeros(n)
    total_bins = 0
    for s in samples:
        total_bins += s.shape[1]
        for i in range(n):
            mu[i] += s[i].sum()
    mu /= total_bins
    for s in samples:
        for i in range(n):
            var[i] += ((s[i] - mu[i]) ** 2).sum()
    var /= total_bins
    alive = [i for i in range(n) if var[i] > 0]
    out = []
    for lag in range(max_lag + 1):
        per_neuron = []
        for i in alive:
            acc = 0.0
            pairs = 0
            for s in samples:
                t = s.shape[1]
                for u in range(t - lag):
                    acc += (s[i, u] - mu[i]) * (s[i, u + lag] - mu[i])
                    pairs += 1
            per_neuron.append((acc / pairs) / var[i])
        out.append(np.mean(per_neuron))
    return np.array(out)


def brute_state_histogram(samples):
    samples = [np.asarray(s) for s in samples]
    n, t = samples[0].shape
    hist = np.zeros(2 ** (n * t))
    for s in samples:
        bits = ""
        for p in range(t):
            for k in range(n):
                bits += "1" if s[k, p] else "0"
        hist[int(bits, 2)] += 1
    return hist / len(samples)


def brute_js_divergence(p, q):
    """Jensen-Shannon divergence in bits, term by term; 0 log 0 is 0."""
    total = 0.0
    for a, b in zip(p, q):
        mid = (a + b) / 2
        for x in (a, b):
            if x > 0:
                total += 0.5 * x * math.log2(x / mid)
    return total


def brute_windows(data, subset, window_len, stride):
    """Every (n, t) window of the chosen rows at the given stride, by
    copying each window's columns one at a time."""
    rows = [np.asarray(data)[k] for k in subset]
    out = []
    for start in range(0, len(rows[0]) - window_len + 1, stride):
        out.append([[row[start + u] for u in range(window_len)]
                    for row in rows])
    return np.array(out, dtype=np.uint8).reshape(-1, len(rows), window_len)


def reference_load_spikes(path):
    """(raster, bin width) of a ``SPIKES v1`` file, parsed as UTF-8 text
    with universal newlines; a refused file raises ValueError naming its
    first fault.  Faults are found in this order: the header (including a
    declared size larger than the file), each row's length and then its
    non-ASCII characters, content after the last row, and last the first
    entry, in row order, that is not 0 or 1."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _reference_parse(fh, os.path.getsize(path))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from exc


def _reference_parse(fh, size):
    header = fh.readline().rstrip("\n")
    parts = header.split(" ")
    if len(parts) != 5 or parts[0] != "SPIKES" or parts[1] != "v1":
        raise ValueError(f"bad header {header!r}: expected "
                         "'SPIKES v1 <neurons> <bins> <bin_width>'")
    try:
        n_neurons, n_bins = int(parts[2]), int(parts[3])
        bin_width = float(parts[4])
    except ValueError:
        raise ValueError(f"bad header fields in {header!r}") from None
    if n_neurons < 1 or n_bins < 1 or not bin_width > 0:
        raise ValueError(f"bad header values in {header!r}")
    if n_neurons * n_bins > size:
        raise ValueError(f"header declares {n_neurons} x {n_bins} "
                         f"entries in a {size}-byte file")
    lines = []
    for i in range(n_neurons):
        line = fh.readline().rstrip("\n")
        if len(line) != n_bins:
            raise ValueError(
                f"row {i} has {len(line)} entries, expected {n_bins}")
        for j, ch in enumerate(line):
            if ord(ch) >= 128:
                raise ValueError(
                    f"non-binary entry {ch!r} at row {i}, column {j}")
        lines.append(line)
    if fh.read().strip():
        raise ValueError(f"trailing content after {n_neurons} declared rows")
    for i, line in enumerate(lines):
        for j, ch in enumerate(line):
            if ch not in "01":
                raise ValueError(
                    f"non-binary entry {ch!r} at row {i}, column {j}")
    return (np.array([[int(ch) for ch in line] for line in lines],
                     dtype=np.uint8), bin_width)
