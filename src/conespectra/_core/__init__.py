"""BACKEND names the array backend; the stage benchmark records it."""

BACKEND = "python"
