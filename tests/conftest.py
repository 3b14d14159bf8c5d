"""Shared test helpers: independent central-difference and 5-point gradient oracles,
exact bank equality, a dense action prior from listed pairs, the dense
oracle of ``actions``, the record-by-record synthetic bank generator and
aggregation chain, a JSON-lines bank and the sidecar that earlier builds
wrote beside one, the reference zip writer, the ways to damage a zip (a
bank, a score table or a prior) or to replace a bank zip's ids, and the
per-batch-scaling training loop."""

import io
import re
import struct
import zipfile
import zlib
from dataclasses import fields

import numpy as np
import pytest

from gatedfusion import training
from gatedfusion.bank import Detection, FeatureBank, SegmentRecord, SynthSpec, bank_features
from gatedfusion.scoring import ActionPrior, label_ranks, topk_report


def central_diff(f, x, step=1e-5):
    """Gradient of scalar ``f`` at array ``x`` by central differences.

    Test-side oracle, deliberately independent of the package's analytic
    backward passes and of its own grad-check utility.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    gflat = grad.ravel()
    for j in range(x.size):
        xp = x.copy()
        xp.ravel()[j] += step
        xm = x.copy()
        xm.ravel()[j] -= step
        gflat[j] = (f(xp) - f(xm)) / (2.0 * step)
    return grad


def five_point_diff(f, x, step=5e-3):
    """Gradient of scalar ``f`` at array ``x`` by the 5-point stencil
    ``(8 (f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h``, one entry at a
    time.  Its O(h^4) truncation error allows a step large enough that
    roundoff stays far below 1e-5 of a gradient entry as small as 1e-7.

    Test-side oracle, independent like ``central_diff``.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    gflat = grad.ravel()

    def at(j, t):
        moved = x.copy()
        moved.ravel()[j] += t
        return f(moved)

    for j in range(x.size):
        gflat[j] = (8.0 * (at(j, step) - at(j, -step))
                    - (at(j, 2.0 * step) - at(j, -2.0 * step))) / (12.0 * step)
    return grad


@pytest.fixture
def planted_gate_bug(monkeypatch):
    """Scale the largest-magnitude entry of every gate-weight gradient that
    ``training`` computes by 1 + 1e-4: a bug the gradient check must catch."""
    real_backward = training.gfa_backward

    def planted(*args, **kwargs):
        dv, do, dW, db = real_backward(*args, **kwargs)
        dW = dW.copy()
        dW.flat[np.argmax(np.abs(dW))] *= 1.0 + 1e-4
        return dv, do, dW, db

    monkeypatch.setattr(training, "gfa_backward", planted)


def logsumexp_nll(scores, labels):
    """Each row's loss ``logsumexp(s) - s[label]`` for ``scores`` of shape
    (..., classes) and ``labels`` of shape (...).

    Test-side reference, written apart from ``training.softmax_nll``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    m = np.max(scores, axis=-1)
    lse = m + np.log(np.sum(np.exp(scores - m[..., None]), axis=-1))
    return lse - np.take_along_axis(scores, np.asarray(labels)[..., None], axis=-1)[..., 0]


def rel_err(a, b, floor=1e-8):
    """Max elementwise relative error with denominator max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def dense_prior(freq, verbs, nouns):
    """An ``ActionPrior`` with ``freq[(v, n)]`` at each listed pair and 0
    elsewhere."""
    mu = np.zeros((verbs, nouns))
    for (v, n), f in freq.items():
        mu[v, n] = f
    return ActionPrior(mu=mu)


def dense_action_oracle(pv, pn, prior, labels):
    """Test-side oracle for ``scoring.score_actions_for_bank`` on verb and
    noun log-probabilities, built from the dense (rows, verbs * nouns) blocks
    ``(pv + log mu) + pn`` and ``pv + pn``: the re-weighted and plain reports,
    each row's first ``min(100, verbs * nouns)`` pairs in ``label_ranks``'
    order, sorted, and the re-weighted block's scores at those pairs."""
    verbs, nouns = prior.mu.shape
    rows, pairs = len(labels), verbs * nouns
    true = labels[:, 0] * nouns + labels[:, 1]
    with np.errstate(divide="ignore", over="ignore"):  # log 0, and a sum past -1.8e308, is -inf
        reweighted = ((pv[:, :, None] + np.log(prior.mu)) + pn[:, None, :]).reshape(rows, pairs)
        plain = (pv[:, :, None] + pn[:, None, :]).reshape(rows, pairs)
    ranks = np.stack([label_ranks(reweighted, np.full(rows, a)) for a in range(pairs)], axis=1)
    kept = np.nonzero(ranks < min(100, pairs))[1].reshape(rows, -1)
    return ({"reweighted": topk_report(reweighted, true), "plain": topk_report(plain, true)},
            kept, np.take_along_axis(reweighted, kept, 1))


# A JSON-lines bank as earlier builds read it: a header line, then one
# record object per line.  No loader reads it now.
OLD_JSON_LINES_BANK = (
    b'{"dim_v":2,"dim_o":2,"verb_vocab_size":2,"noun_vocab_size":3}\n'
    b'{"segment_id":"s0","clip_feature":[1.0,2.0],"center":10,"detections":['
    b'{"frame":10,"score":0.5,"feature":[0.1,0.2]}],"verb":0,"noun":1}\n'
    b'{"segment_id":"s1","clip_feature":[0.5,-1.0],"center":20,"detections":[],"noun":2}\n')


def write_old_sidecar(bank: FeatureBank, path) -> None:
    """The ``<bank>.npz`` sidecar that earlier builds wrote beside a
    JSON-lines bank: a "digest" member holding the SHA-256 of that text
    (zeros here: no loader compares it), then the zip bank's members."""
    ids = "".join(seg_id + "\n" for seg_id in bank.ids).encode("utf-8")
    members = {"digest": np.zeros(32, dtype=np.uint8),
               "header": np.array([bank.dim_v, bank.dim_o, bank.verb_vocab_size,
                                   bank.noun_vocab_size], dtype=np.int64),
               "clip": bank.clip, "features": bank.features, "frames": bank.frames,
               "scores": bank.scores, "detections": bank.counts, "centers": bank.centers,
               "labels": bank.labels, "ids": np.frombuffer(ids, dtype=np.uint8)}
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def reference_zip(members: dict) -> bytes:
    """Test-side oracle for the bytes of ``errors._write_zip``: each array of
    ``members``, in order, as a stored ``<name>.npy`` member written by
    ``np.lib.format.write_array``, with 1980 timestamps."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, array in members.items():
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            with zf.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array(member, array, allow_pickle=False)
    return buf.getvalue()


def _npy(array, allow_pickle=False, version=None) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array, version, allow_pickle)
    return buf.getvalue()


# The ways ``damage_zip`` damages a zip bank, score table or prior.
ZIP_DAMAGE = ("truncated", "flipped", "missing", "extra", "renamed", "out-of-order", "deflated",
              "object", "huge-shape", "wrong-dtype", "big-endian", "fortran", "npy-2.0",
              "trailing-bytes", "short-block", "rule-breaking-id", "repeated-id",
              "ids-without-newline", "header-shape", "python-2-header")
# The member a kind damages in a bank, else "scores.npy"; in a score table,
# "scores.npy", and in a prior, "mu.npy".
_BANK_MEMBER = {"flipped": "features.npy", "missing": "labels.npy", "renamed": "detections.npy",
                "object": "clip.npy", "huge-shape": "features.npy", "fortran": "clip.npy",
                "npy-2.0": "clip.npy", "short-block": "frames.npy"}


def damage_zip(path, kind: str) -> None:
    """Damage the zip bank, score table or prior at ``path`` in place: cut its
    last 200 bytes, flip the last byte of a block, or rewrite its members
    with one of them missing, added, renamed, out of order, deflated,
    holding pickled objects, declaring a 2**60-byte array, of another dtype
    or byte order, in Fortran order or under an npy 2.0 header (both of
    which ``np.load`` reads as the same array), followed by a byte, a row
    short, holding an id with a space or an id twice, with ids or header
    not in the written layout, or with a header that numpy reads only after
    repairing it.  A bank must hold at least one detection and a bank or
    table two rows; a prior, which holds no ids, is given two to damage."""
    data = bytearray(path.read_bytes())
    if kind == "truncated":
        path.write_bytes(data[:-200])
        return
    with zipfile.ZipFile(path) as zf:
        members = {info.filename: zf.read(info) for info in zf.infolist()}
        target = _BANK_MEMBER.get(kind, "scores.npy")
        target = target if target in members else list(members)[1]
        block = zf.getinfo(target)
    if kind == "flipped":  # the member's data follows its 30-byte local header, name and extra
        name_len, extra_len = struct.unpack_from("<HH", data, block.header_offset + 26)
        data[block.header_offset + 30 + name_len + extra_len + block.file_size - 1] ^= 1
        path.write_bytes(data)
        return

    def array(name):
        return np.lib.format.read_array(io.BytesIO(members[name]))

    compression = zipfile.ZIP_DEFLATED if kind == "deflated" else zipfile.ZIP_STORED
    if kind == "missing":
        del members[target]
    elif kind == "extra":
        members["notes.npy"] = _npy(np.zeros(1))
    elif kind == "renamed":
        members = {("counts.npy" if name == target else name): raw
                   for name, raw in members.items()}
    elif kind == "out-of-order":
        names = list(members)
        names[1], names[2] = names[2], names[1]
        members = {name: members[name] for name in names}
    elif kind == "object":
        members[target] = _npy(np.array([object()] * 3), allow_pickle=True)
    elif kind == "huge-shape":
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(buf, {"descr": "<f8", "fortran_order": False,
                                                   "shape": (2**51, 64)})
        members[target] = buf.getvalue()
    elif kind == "wrong-dtype":
        members[target] = _npy(array(target).astype(np.float32))
    elif kind == "big-endian":
        members[target] = _npy(array(target).astype(">f8"))
    elif kind == "fortran":
        members[target] = _npy(np.asfortranarray(array(target)))
    elif kind == "npy-2.0":
        members[target] = _npy(array(target), version=(2, 0))
    elif kind == "trailing-bytes":
        members[target] += b"\0"
    elif kind == "short-block":
        members[target] = _npy(array(target)[:-1])
    elif kind in ("rule-breaking-id", "repeated-id", "ids-without-newline"):
        ids = (array("ids.npy").tobytes() or b"s0\ns1\n").split(b"\n")  # a prior holds none
        if kind == "rule-breaking-id":
            ids[0] = b"a b"
        elif kind == "repeated-id":
            ids[1] = ids[0]
        else:
            ids.pop()
        members["ids.npy"] = _npy(np.frombuffer(b"\n".join(ids), dtype=np.uint8))
    elif kind == "header-shape":
        members["header.npy"] = _npy(array("header.npy").reshape(2, -1))
    elif kind == "python-2-header":  # a long-int suffix, in place of a space
        members["header.npy"] = re.sub(rb"\((\d+),\), }", rb"(\1L,),}", members["header.npy"])
    with zipfile.ZipFile(path, "w", compression) as zf:
        for name, raw in members.items():
            zf.writestr(name, raw)


def replace_zip_ids(path, ids: list[str]) -> None:
    """Rewrite the ``ids`` member of the bank zip at ``path`` to hold
    ``ids``, each encoded as UTF-8 (a lone surrogate as its three bytes,
    which no UTF-8 decoder takes) and followed by a newline."""
    with zipfile.ZipFile(path) as zf:
        members = {info.filename: zf.read(info) for info in zf.infolist()}
    raw = "".join(seg_id + "\n" for seg_id in ids).encode("utf-8", "surrogatepass")
    members["ids.npy"] = _npy(np.frombuffer(raw, dtype=np.uint8))
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)


def banks_equal(a: FeatureBank, b: FeatureBank) -> bool:
    """Exact equality of two banks: header, ids and every block."""
    def same(x, y):
        return np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
    return all(same(getattr(a, f.name), getattr(b, f.name)) for f in fields(FeatureBank))


def _unit_prototypes(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    protos = np.abs(rng.normal(size=(count, dim)))
    norms = np.maximum(np.linalg.norm(protos, axis=1, keepdims=True), 1e-12)
    return protos / norms


def reference_synth_generate(spec: SynthSpec, seed: int, split: str = "train") -> FeatureBank:
    """Test-side oracle for ``bank.synth_generate``: the same draws, with
    each record's features computed as they are drawn and the bank packed
    from ``SegmentRecord`` rows."""
    proto_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    verb_protos = _unit_prototypes(proto_rng, spec.verb_vocab, spec.dim_v)
    noun_protos = _unit_prototypes(proto_rng, spec.noun_vocab, spec.dim_o)
    noun_clip_protos = _unit_prototypes(proto_rng, spec.noun_vocab, spec.dim_v)
    allowed_nouns = None
    if spec.pairs_per_verb > 0:
        allowed_nouns = [sorted(proto_rng.choice(spec.noun_vocab,
                                                 size=spec.pairs_per_verb,
                                                 replace=False).tolist())
                         for _ in range(spec.verb_vocab)]

    rng = np.random.default_rng(np.random.SeedSequence(
        [seed, 1, zlib.crc32(split.encode("utf-8"))]))

    half = (spec.window - 1) // 2
    records: list[SegmentRecord] = []
    for i in range(spec.n_segments):
        verb = int(rng.integers(spec.verb_vocab))
        if allowed_nouns is None:
            noun = int(rng.integers(spec.noun_vocab))
        else:
            noun = allowed_nouns[verb][int(rng.integers(spec.pairs_per_verb))]
        center = int(rng.integers(100, 10_000))
        clip = verb_protos[verb] + spec.noise * rng.normal(size=spec.dim_v)
        if spec.noun_in_clip > 0:
            clip = clip + spec.noun_in_clip * noun_clip_protos[noun]

        amp = spec.mismatch
        if spec.amplitude_jitter > 0:
            j = spec.amplitude_jitter
            # Normalized so the mean amplitude factor stays at `mismatch`.
            mean_factor = (10.0 ** j - 10.0 ** -j) / (2.0 * j * np.log(10.0))
            amp *= 10.0 ** rng.uniform(-j, j) / mean_factor
        detections: list[Detection] = []
        for _ in range(spec.signal_detections):
            frame = center + int(rng.integers(-half, half + 1))
            score = float(rng.uniform(0.6, 1.0))
            feat = amp * (noun_protos[noun] + spec.noise * rng.normal(size=spec.dim_o))
            detections.append(Detection(frame, score, feat))
        for _ in range(spec.distractors):
            frame = center + int(rng.integers(-half, half + 1))
            score = float(rng.uniform(0.0, 0.4))
            feat = amp * (_unit_prototypes(rng, 1, spec.dim_o)[0]
                          + spec.noise * rng.normal(size=spec.dim_o))
            detections.append(Detection(frame, score, feat))
        for _ in range(spec.decoys):
            # High score but outside the window: punishes skipped windowing.
            offset = half + 1 + int(rng.integers(0, 10))
            side = 1 if rng.uniform() < 0.5 else -1
            score = float(rng.uniform(0.8, 1.0))
            feat = amp * (_unit_prototypes(rng, 1, spec.dim_o)[0]
                          + spec.noise * rng.normal(size=spec.dim_o))
            detections.append(Detection(center + side * offset, score, feat))

        records.append(SegmentRecord(
            segment_id=f"{split}-{i:05d}",
            clip_feature=clip,
            clip_center_frame=center,
            detections=detections,
            verb_label=verb,
            noun_label=noun,
        ))

    return FeatureBank.from_records(records, dim_v=spec.dim_v, dim_o=spec.dim_o,
                                    verb_vocab_size=spec.verb_vocab,
                                    noun_vocab_size=spec.noun_vocab)


def context_window(record: SegmentRecord, cfg) -> list[Detection]:
    """Detections within (window-1)/2 frames of the clip center."""
    half = (cfg.window - 1) // 2
    center = record.clip_center_frame
    return [d for d in record.detections if abs(d.frame_index - center) <= half]


def select_top_k(detections: list[Detection], k: int) -> list[Detection]:
    """The k highest-scoring detections, descending by score.  Ties break by
    ascending (frame_index, input position), so the result is deterministic."""
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i].score, detections[i].frame_index, i))
    return [detections[i] for i in order[:k]]


def maxpool_features(detections: list[Detection], dim_o: int) -> np.ndarray:
    """Coordinatewise maximum of the detection features, pooled in list
    order; zero vector if empty."""
    if not detections:
        return np.zeros(dim_o)
    out = detections[0].feature.astype(np.float64, copy=True)
    for det in detections[1:]:
        np.maximum(out, det.feature, out=out)
    return out


def aggregate_object_feature(record: SegmentRecord, cfg, dim_o: int) -> np.ndarray:
    """Test-side oracle for one row of ``bank.bank_features``: window ->
    top-K -> max pool, one record at a time."""
    return maxpool_features(select_top_k(context_window(record, cfg), cfg.k), dim_o)


def reference_train(bank, target, spec, cfg, val_bank=None):
    """Test-side oracle for ``training.train``: the same draws and updates,
    with both banks aggregated for every kind, the model's scale stage run
    inside each batch's and each validation pass's ``forward_model``, and
    each SGD step building new arrays.  It skips ``train``'s input checks."""
    labels, classes = training.target_labels(bank, target)
    if val_bank is not None:
        val_labels = training.target_labels(val_bank, target)[0]
    rng = np.random.default_rng(cfg.seed)
    model = training.init_model(spec.fusion, bank.dim_v, bank.dim_o, classes,
                                scale=spec.scale, rng=rng)
    V, O = bank_features(bank, spec.aggregation)
    val_data = (None if val_bank is None
                else (*bank_features(val_bank, spec.aggregation), val_labels))
    # SGD writes into these arrays, which are the model's own parameters.
    params = training.param_groups(model)
    velocity = {name: np.zeros_like(arr) for name, arr in params.items()}

    n = len(bank.ids)
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        batch_losses: list[float] = []
        batch_gnorms: list[float] = []
        for batch, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            loss, grads = training.loss_and_grads(model, V[idx], O[idx], labels[idx],
                                                  inputs=False)
            with np.errstate(over="ignore"):  # an overflow reads as divergence below
                gnorm = float(np.sqrt(sum(float(np.sum(grads[name] * grads[name]))
                                          for name in params)))
            if not (np.isfinite(loss) and np.isfinite(gnorm)):
                raise training.ValidationError(
                    f"training diverged at epoch {epoch}, batch {batch}: loss {loss}, "
                    f"gradient norm {gnorm}")
            batch_losses.append(loss)
            batch_gnorms.append(gnorm)
            for name, arr in params.items():
                new_velocity = cfg.momentum * velocity[name] + grads[name]
                arr[...], velocity[name] = arr - cfg.learning_rate * new_velocity, new_velocity
        entry = {
            "epoch": epoch,
            "mean_loss": float(np.mean(batch_losses)),
            "mean_grad_norm": float(np.mean(batch_gnorms)),
        }
        if val_data is not None:
            Vv, Ov, val_labels = val_data
            ranks = label_ranks(training.forward_model(model, Vv, Ov)[0], val_labels)
            entry["val_top1"] = float(np.mean(ranks < 1))
        history.append(entry)
    return model, history
