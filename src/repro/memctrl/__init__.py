"""Memory controller: request queues, FR-FCFS scheduling, page policy."""

from .controller import (
    BANK_QUEUE_CAPACITY,
    VICTIMS_PER_MITIGATION,
    ChannelController,
)
from .request import InFlightRequest

__all__ = [
    "BANK_QUEUE_CAPACITY",
    "VICTIMS_PER_MITIGATION",
    "ChannelController",
    "InFlightRequest",
]
