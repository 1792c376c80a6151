"""Typed offloading messages (§III-D, Fig. 3).

Migrated data decomposes into three upload classes — **mobile code**
(the app package, since the framework offloads via Java reflection),
**files and parameters** specifying the task, and **control messages**
managing the procedure — plus the downloaded **result**.  Fig. 3's
finding: for workloads without file transfer (ChessGame, Linpack) the
mobile code is >50 % of migrated bytes and is retransmitted to *every*
VM, which motivates the App Warehouse code cache.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..workloads.base import WorkloadProfile

__all__ = ["MessageKind", "Message", "upload_messages", "result_message", "KB"]

KB = 1024


class MessageKind(str, enum.Enum):
    """Wire-level message classes (Fig. 3 legend)."""

    CODE = "mobile_code"
    FILE_PARAM = "file_param"
    CONTROL = "control"
    RESULT = "result"


@dataclass(frozen=True)
class Message:
    """One framed message."""

    kind: str
    size_bytes: int
    app_id: str = ""
    description: str = ""

    def __post_init__(self):
        if self.size_bytes < 0:
            raise ValueError("message size must be >= 0")


@lru_cache(maxsize=256)
def upload_messages(
    profile: "WorkloadProfile", include_code: bool
) -> Tuple[Message, ...]:
    """Messages a client uploads for one offloading request.

    ``include_code`` is True when the target runtime (or, with the App
    Warehouse, the whole platform) has never seen this app's code.
    Profiles are frozen, so each profile's messages are built once and
    shared by every request that carries it.
    """
    msgs: List[Message] = []
    if include_code:
        msgs.append(
            Message(
                kind=MessageKind.CODE.value,
                size_bytes=int(profile.code_size_kb * KB),
                app_id=profile.name,
                description=f"{profile.name} app package",
            )
        )
    payload = int((profile.file_size_kb + profile.param_size_kb) * KB)
    if payload:
        msgs.append(
            Message(
                kind=MessageKind.FILE_PARAM.value,
                size_bytes=payload,
                app_id=profile.name,
                description="task files and parameters",
            )
        )
    msgs.append(
        Message(
            kind=MessageKind.CONTROL.value,
            size_bytes=int(profile.control_size_kb * KB),
            app_id=profile.name,
            description="offloading control",
        )
    )
    return tuple(msgs)


@lru_cache(maxsize=256)
def result_message(profile: "WorkloadProfile") -> Message:
    """The downloaded execution result (built once per profile)."""
    return Message(
        kind=MessageKind.RESULT.value,
        size_bytes=int(profile.result_size_kb * KB),
        app_id=profile.name,
        description="execution result",
    )
