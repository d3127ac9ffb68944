"""Memoized specialization — amortize Tempo to (at most) once per key.

Running the full pipeline — BTA, polyvariant specialization,
post-processing, residual compilation — costs seconds; the paper (and
the online-specialization follow-ups) amortize it by specializing once
per set of invariants and reusing the residual code for every call.
:class:`SpecializationCache` is that amortization for the live stack:

* an in-memory LRU maps a *content key* to the ready-to-install
  specialization object, so repeated ``specialize_client`` /
  ``specialize_server`` calls with identical invariants are O(1);
* an optional on-disk store persists the residual
  :class:`~repro.tempo.driver.SpecializationResult` payloads (pickled)
  under the same key, so a fresh process skips Tempo entirely and only
  re-compiles the residual program.

The content key hashes everything the residual code depends on: the
IDL source, the implementation sources, the specializer options, the
procedure, the binding-time invariants (array lengths, buffer size).
Change any of them — e.g. edit the ``.x`` file — and the key changes,
invalidating stale entries by construction.
"""

import hashlib
import json
import os
import pickle
from collections import OrderedDict

from repro import obs as _obs
from repro.errors import VerificationError

#: bump when the cached payload layout changes.  The format version is
#: both part of the file name (old entries are never looked up again)
#: and stamped *inside* each entry (an entry whose stamp disagrees —
#: e.g. copied or symlinked across cache generations, or written by a
#: future format under a colliding name — is treated as a miss rather
#: than loaded as stale residual code).
CACHE_FORMAT = 3


def content_key(**parts):
    """A stable hex digest of arbitrary JSON-able key parts.

    Non-JSON values are folded in via ``repr``, which must expose
    their settings and nothing else: the specializer's ``Options`` have
    a field-by-field one (the default ``repr`` carries a memory address
    — never equal across processes, and reused between objects).
    """
    blob = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class SpecializationCache:
    """LRU of built specializations with an optional disk tier.

    ``get(key, build, dump, load, check)``:

    * memory hit — return the cached object;
    * disk hit — unpickle the payload, revive it with ``load``,
      promote to memory;
    * miss — call ``build()``, cache the object, and (when a disk tier
      is configured and ``dump`` is given) persist ``dump(object)``.

    ``check`` is the verification gate: a callable that raises
    :class:`~repro.errors.VerificationError` on an unacceptable value.
    A freshly built value that fails the check is **never installed**
    (the error propagates).  A disk-revived value that fails is treated
    as a cache miss and rebuilt — a tampered or stale payload cannot
    smuggle unverified residual code into the process.  In-memory hits
    are not re-checked: they were checked when they entered.

    ``dump``/``load`` exist because the built objects hold live
    compiled modules and pipeline references that should not be
    pickled; the payload is the picklable residue (the
    SpecializationResults) from which ``load`` rebuilds the object.
    """

    def __init__(self, capacity=64, cache_dir=None):
        self.capacity = capacity
        self.cache_dir = cache_dir
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    # -- the lookup ------------------------------------------------------

    def get(self, key, build, dump=None, load=None, check=None):
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            if _obs.enabled:
                _obs.registry.counter("spec.cache.hits").inc()
            self._entries.move_to_end(key)
            return entry
        if load is not None:
            payload = self._disk_read(key)
            if payload is not None:
                value = load(payload)
                if check is not None:
                    try:
                        check(value)
                    except VerificationError:
                        # A revived payload that fails verification is
                        # a miss: fall through and rebuild from Tempo
                        # (the rebuild is checked below).
                        value = None
                if value is not None:
                    self.disk_hits += 1
                    if _obs.enabled:
                        _obs.registry.counter("spec.cache.disk_hits").inc()
                    self._remember(key, value)
                    return value
        self.misses += 1
        if _obs.enabled:
            _obs.registry.counter("spec.cache.misses").inc()
        value = build()
        if check is not None:
            check(value)
        self._remember(key, value)
        if dump is not None:
            self._disk_write(key, dump(value))
        return value

    def clear(self):
        self._entries.clear()

    def _remember(self, key, value):
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # -- the disk tier ---------------------------------------------------

    def _path(self, key):
        return os.path.join(self.cache_dir, f"spec-v{CACHE_FORMAT}-{key}.pkl")

    def _disk_read(self, key):
        if not self.cache_dir:
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError):
            # Missing, truncated, or stale-format entries are misses.
            return None
        # Schema guard: entries are {"format": CACHE_FORMAT, "payload":
        # ...}; anything else (pre-v2 raw payloads, a mismatched stamp)
        # is a miss — never revive residual code across format changes.
        if (not isinstance(entry, dict)
                or entry.get("format") != CACHE_FORMAT):
            return None
        return entry.get("payload")

    def _disk_write(self, key, payload):
        if not self.cache_dir:
            return
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            path = self._path(key)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "wb") as handle:
                pickle.dump({"format": CACHE_FORMAT, "payload": payload},
                            handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            # A read-only or full cache dir never fails the pipeline.
            pass
