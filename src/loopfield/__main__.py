"""`python -m loopfield`: the same command line as the `loopfield` script."""

from .cli import main

if __name__ == "__main__":
    main()
