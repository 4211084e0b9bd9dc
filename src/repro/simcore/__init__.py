"""Timeline tracing shared by the schedule models and the serving reports."""

from .trace import Span, Timeline

__all__ = ["Span", "Timeline"]
