"""Bursty packet-level traffic generation for video users.

A user alternates idle gaps (Exponential interuse time) and viewing sessions
whose lengths follow a small discrete table.  Within a session, packet bursts
of Normal-distributed size arrive separated by Exponential interburst gaps,
and packets inside a burst are separated by Exponential interpacket gaps.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .series import PacketTrace, ParameterError, merge_traces

#: measured parameters for an HD video user (packet size in bits)
DEFAULT_PACKET_SIZE_BITS = 1464 * 8
DEFAULT_SESSION_TABLE = ((5 * 60.0, 0.4), (15 * 60.0, 0.3),
                         (30 * 60.0, 0.25), (120 * 60.0, 0.05))


@dataclass(frozen=True)
class VideoUserParams:
    packet_size_bits: int = DEFAULT_PACKET_SIZE_BITS
    burst_size_mean: float = 1714.0          # packets per burst
    # The source measurement table labels the burst dispersion "variance";
    # a variance of 278 packets^2 against a mean of 1714 gives implausibly
    # deterministic bursts, so it is read as a standard deviation.
    burst_size_dispersion: float = 278.0     # packets
    interburst_mean_s: float = 5.56
    interpacket_mean_s: float = 0.00345
    interuse_mean_s: float = 45 * 60.0
    session_lengths: tuple = DEFAULT_SESSION_TABLE

    def __post_init__(self):
        # negated checks, so that NaN fails them
        for name in ("burst_size_mean", "interburst_mean_s",
                     "interpacket_mean_s", "interuse_mean_s"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be strictly positive")
        if not 0 < self.packet_size_bits < math.inf:
            raise ParameterError("packet_size_bits must be finite and > 0")
        if not self.burst_size_dispersion >= 0:
            raise ParameterError("burst_size_dispersion must be nonnegative")
        table = tuple((float(d), float(p)) for d, p in self.session_lengths)
        object.__setattr__(self, "session_lengths", table)
        probs = [p for _, p in table]
        if not table or not all(p >= 0 for p in probs):
            raise ParameterError("session probabilities must be nonnegative")
        if not abs(sum(probs) - 1.0) <= 1e-12:
            raise ParameterError("session probabilities must sum to 1")
        if not all(d >= 0 for d, _ in table):
            raise ParameterError("session durations must be nonnegative")

    @property
    def mean_session_s(self) -> float:
        return sum(d * p for d, p in self.session_lengths)

    @property
    def in_session_rate_bps(self) -> float:
        """Average bit rate while a session is running (burst plus gap cycle)."""
        burst_dur = (self.burst_size_mean - 1.0) * self.interpacket_mean_s
        cycle = burst_dur + self.interburst_mean_s
        return self.burst_size_mean * self.packet_size_bits / cycle

    @property
    def mean_rate_bps(self) -> float:
        """Long-run average bit rate of one user."""
        es = self.mean_session_s
        if es == 0:
            return 0.0
        return self.in_session_rate_bps * es / (es + self.interuse_mean_s)


def interuse_for_rate(params: VideoUserParams, target_bps: float) -> float:
    """Interuse mean that makes one user's long-run rate equal target_bps."""
    if target_bps <= 0:
        raise ParameterError("target rate must be > 0")
    r = params.in_session_rate_bps
    if target_bps >= r:
        raise ParameterError("target rate exceeds the in-session rate")
    return params.mean_session_s * (r / target_bps - 1.0)


def generate_video_user(params: VideoUserParams, horizon, seed,
                        warmup_s: float = 0.0) -> PacketTrace:
    """Generate one user's packet trace on [t0, t1], deterministic in seed:
    the concatenated chunks of video_user_chunks.

    ``seed`` may be an int or a numpy SeedSequence; multi-user scenarios
    derive per-user seeds by SeedSequence spawning (see generate_users).
    """
    t0, t1 = float(horizon[0]), float(horizon[1])
    chunks = list(video_user_chunks(params, horizon, seed, warmup_s))
    # Already sorted and inside [t0, t1): a burst starts after the previous
    # burst's end, a session after the previous session_end, and every kept
    # time is below its session_end <= t1.  PacketTrace checks the order.
    times = np.concatenate(chunks) if chunks else np.empty(0)
    return PacketTrace(times, params.packet_size_bits, (t0, t1))


def video_user_chunks(params: VideoUserParams, horizon, seed,
                      warmup_s: float = 0.0):
    """The packet times of one user on [t0, t1], as a generator of the
    nondecreasing arrays each burst keeps, in time order.

    With ``warmup_s`` > 0 the session/gap alternation starts that many
    seconds before t0, so short windows see the process near steady state
    instead of every user starting idle.  Sessions that end before t0 are
    regeneration points and are skipped without drawing their bursts, and
    bursts that end before t0 are drawn but keep no array; only packets
    inside [t0, t1] are emitted.
    """
    t0, t1 = float(horizon[0]), float(horizon[1])
    # negated checks, so that NaN fails them; an infinite end or warmup
    # would never stop drawing
    if not -math.inf < t0 < t1 < math.inf:
        raise ParameterError("horizon must be finite and nonempty")
    if not 0 <= warmup_s < math.inf:
        raise ParameterError("warmup_s must be finite and >= 0")
    rng = np.random.default_rng(seed)

    # rng.choice(durations, p=probs) draws one random() and bisects this
    # cdf, built as Generator.choice builds it: the same draw, without
    # choice's checks and conversions on every call
    durations = [d for d, _ in params.session_lengths]
    cdf = np.array([p for _, p in params.session_lengths]).cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    # standard_exponential scaled by the mean is rng.exponential, byte for
    # byte; the gaps of every burst are drawn into this one buffer
    gaps = np.empty(4096)
    t = t0 - warmup_s + rng.exponential(params.interuse_mean_s)
    while t < t1:
        session_end = min(t + durations[bisect_right(cdf, rng.random())], t1)
        if session_end > t0:
            burst_start = t
            while burst_start < session_end:
                n_pkts = max(1, int(round(rng.normal(params.burst_size_mean,
                                                     params.burst_size_dispersion))))
                if n_pkts - 1 > gaps.size:
                    gaps = np.empty(2 * n_pkts)
                offsets = gaps[:n_pkts - 1]
                rng.standard_exponential(out=offsets)
                offsets *= params.interpacket_mean_s
                np.add.accumulate(offsets, out=offsets)
                burst_end = (burst_start + offsets[-1] if n_pkts > 1
                             else burst_start)
                if burst_end >= t0:
                    # a new array: kept chunks never view the buffer
                    times = np.empty(n_pkts)
                    times[0] = burst_start
                    np.add(offsets, burst_start, out=times[1:])
                    # times are nondecreasing: keep [t0, session_end) by
                    # bisection
                    lo = np.searchsorted(times, t0) if burst_start < t0 else 0
                    hi = (np.searchsorted(times, session_end)
                          if burst_end >= session_end else n_pkts)
                    if lo < hi:
                        yield times[lo:hi]
                burst_start = burst_end + rng.exponential(params.interburst_mean_s)
        t = session_end + rng.exponential(params.interuse_mean_s)


def _user_seeds(horizon, seed, n_users):
    """The per-user seeds of generate_users, spawned from one master seed."""
    if not -math.inf < float(horizon[0]) < float(horizon[1]) < math.inf:
        raise ParameterError("horizon must be finite and nonempty")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return seed.spawn(n_users)


def generate_users(params: VideoUserParams, horizon, seed, n_users: int,
                   warmup_s: float = 0.0):
    """Independent per-user traces from one master seed.

    Per-user streams come from SeedSequence.spawn, so user i's trace does not
    depend on how many users are generated or in which order.
    """
    return [generate_video_user(params, horizon, child, warmup_s)
            for child in _user_seeds(horizon, seed, n_users)]


def user_chunks(params: VideoUserParams, horizon, seed, n_users: int,
                warmup_s: float = 0.0):
    """generate_users' users as video_user_chunks generators: the same
    per-user streams, to be drawn a time segment at a time."""
    return [video_user_chunks(params, horizon, child, warmup_s)
            for child in _user_seeds(horizon, seed, n_users)]


def generate_aggregate(params: VideoUserParams, horizon, seed, n_users: int,
                       warmup_s: float = 0.0) -> PacketTrace:
    """merge_traces of generate_users' traces; with no users, the empty
    trace on ``horizon``."""
    traces = generate_users(params, horizon, seed, n_users, warmup_s)
    horizon = (float(horizon[0]), float(horizon[1]))
    if not traces:
        return PacketTrace(np.empty(0), params.packet_size_bits, horizon)
    return merge_traces(traces, horizon=horizon)
