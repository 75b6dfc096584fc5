"""`python -m bistable_waves COMMAND --config PATH`: the command line of
bistable_waves.cli, as the console script runs it."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
