"""Memory controller: request queues, FR-FCFS scheduling, page policy."""

from .controller import (
    BANK_QUEUE_CAPACITY,
    VICTIMS_PER_MITIGATION,
    ChannelController,
)

__all__ = [
    "BANK_QUEUE_CAPACITY",
    "VICTIMS_PER_MITIGATION",
    "ChannelController",
]
