"""Native→interpreter fallback policy: the service's backend state machine.

State transitions::

    BUILDING ──build ok──────────▶ NATIVE
        │                            │
        └─build failed / load        ├─transient native error ─▶ frame
          failed ─▶ INTERPRETER      │   re-served by the interpreter
                                     └─``MAX_NATIVE_ERRORS`` consecutive
                                       errors ─▶ INTERPRETER (demoted)

The policy never promotes back from INTERPRETER: a backend that failed
to build or repeatedly failed at runtime stays demoted for the service's
lifetime — predictable degradation beats flapping.  Every transition and
every fallback-served frame is counted, so ``service.stats()`` can
report *why* frames ran where they did.
"""

from __future__ import annotations

import threading

#: backend states
BUILDING = "building"
NATIVE = "native"
INTERPRETER = "interpreter"

#: consecutive native-call errors that demote the backend for good
MAX_NATIVE_ERRORS = 3


class FallbackPolicy:
    """Tracks which backend frames should use and why, thread-safely.

    One instance per service.  Workers call :meth:`backend_for_frame`
    per frame; build/runtime outcomes feed back through the ``note_*``
    methods.
    """

    def __init__(self, native_enabled: bool = True, on_transition=None):
        #: optional ``callback(transition, fields)`` invoked outside the
        #: policy lock for every state-machine transition —
        #: ``build_ready``, ``build_failed``, ``load_failed``,
        #: ``native_error``, ``demoted`` — so the service can mirror
        #: them into its event log without risking lock-order cycles
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = BUILDING if native_enabled else INTERPRETER
        self._native = None
        self._build_resolved = False
        self._consecutive_errors = 0
        #: reason -> count of fallback events ("build_failed",
        #: "load_failed", "native_error", "demoted")
        self._fallbacks: dict[str, int] = {}

    # -- state ingestion ---------------------------------------------------
    def note_build_resolved(self, native, exc: BaseException | None):
        """Ingest the background build outcome exactly once.

        Every worker polls the finished build handle, so several may
        race to report it; only the first call mutates the policy (and
        its fallback counters), the rest are no-ops.  On success the
        policy moves to NATIVE.  On failure it goes interpreter-only:
        :class:`~repro.codegen.build.BuildError` counts as
        ``build_failed``, anything else (e.g. ``OSError`` from a corrupt
        artifact at ``dlopen`` time) as ``load_failed``.

        Returns the recorded fallback reason when *this* call recorded a
        failure, ``None`` otherwise (success or already resolved).
        """
        from repro.codegen.build import BuildError
        with self._lock:
            if self._build_resolved:
                return None
            self._build_resolved = True
            if exc is None:
                promoted = self._state == BUILDING
                if promoted:
                    self._native = native
                    self._state = NATIVE
            else:
                reason = "build_failed" if isinstance(exc, BuildError) \
                    else "load_failed"
                self._state = INTERPRETER
                self._native = None
                self._fallbacks[reason] = self._fallbacks.get(reason, 0) + 1
        if exc is None:
            if promoted:
                self._emit("build_ready")
            return None
        self._emit(reason, error=f"{type(exc).__name__}: {exc}")
        return reason

    def _emit(self, transition: str, **fields) -> None:
        """Report a transition to the observer callback, outside the
        lock; observer errors never poison the state machine."""
        if self._on_transition is None:
            return
        try:
            self._on_transition(transition, fields)
        except Exception:  # noqa: BLE001 - observability must not wedge
            pass

    def note_native_error(self, exc: BaseException) -> bool:
        """A native call raised (without crashing the process).

        The frame is re-served by the interpreter; after
        ``MAX_NATIVE_ERRORS`` *consecutive* failures the backend is
        demoted for good.  Returns True when this error demoted it.
        """
        with self._lock:
            self._fallbacks["native_error"] = \
                self._fallbacks.get("native_error", 0) + 1
            self._consecutive_errors += 1
            errors = self._consecutive_errors
            demoted = (self._state == NATIVE
                       and errors >= MAX_NATIVE_ERRORS)
            if demoted:
                self._state = INTERPRETER
                self._native = None
                self._fallbacks["demoted"] = \
                    self._fallbacks.get("demoted", 0) + 1
        self._emit("native_error", error=f"{type(exc).__name__}: {exc}",
                   consecutive=errors)
        if demoted:
            self._emit("demoted", after_errors=errors)
        return demoted

    def note_native_ok(self) -> None:
        """A native call succeeded; reset the consecutive-error streak."""
        with self._lock:
            self._consecutive_errors = 0

    # -- queries -----------------------------------------------------------
    def backend_for_frame(self):
        """(backend name, native-or-None) for the next frame.

        BUILDING serves the interpreter while the build is in flight —
        callers get correct (slower) results immediately instead of
        waiting on ``gcc``.
        """
        with self._lock:
            if self._state == NATIVE:
                return NATIVE, self._native
            return INTERPRETER, None

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def native(self):
        with self._lock:
            return self._native

    def fallbacks(self) -> dict[str, int]:
        with self._lock:
            return dict(self._fallbacks)
